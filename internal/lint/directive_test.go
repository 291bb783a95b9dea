package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// The //lint:allow parser must fail closed: a directive that cannot be
// trusted (unknown analyzer, missing reason, wrong line) never suppresses
// anything and is itself reported.

func TestDirectiveParse(t *testing.T) {
	cases := []struct {
		body         string // text after "//lint:allow"
		analyzer     string // expected on success
		reason       string
		badSubstring string // expected failure, "" = must parse
	}{
		{body: " nondeterm(wall-clock metadata)", analyzer: "nondeterm", reason: "wall-clock metadata"},
		{body: " jsonsafe(  padded reason  )", analyzer: "jsonsafe", reason: "padded reason"},
		{body: " seedflow(nested (parens) survive)", analyzer: "seedflow", reason: "nested (parens) survive"},
		{body: "", badSubstring: "want //lint:allow analyzer(reason)"},
		{body: "   ", badSubstring: "want //lint:allow analyzer(reason)"},
		{body: "nondeterm(no word boundary)", badSubstring: "unrecognized directive"},
		{body: " nosuchanalyzer(reason)", badSubstring: `unknown analyzer "nosuchanalyzer"`},
		// The pseudo-analyzer for directive findings is deliberately not
		// allowable: malformed directives cannot be allowed away.
		{body: " lintdirective(reason)", badSubstring: `unknown analyzer "lintdirective"`},
		{body: " nondeterm", badSubstring: "missing (reason)"},
		{body: " nondeterm()", badSubstring: "empty reason"},
		{body: " nondeterm(   )", badSubstring: "empty reason"},
		{body: " nondeterm(reason) trailing", badSubstring: "must end with (reason)"},
		{body: " nondeterm reason", badSubstring: "missing (reason)"},
	}
	for _, tc := range cases {
		d := &directive{}
		d.parse(tc.body)
		if tc.badSubstring != "" {
			if d.bad == "" {
				t.Errorf("parse(%q): accepted, want failure containing %q", tc.body, tc.badSubstring)
			} else if !strings.Contains(d.bad, tc.badSubstring) {
				t.Errorf("parse(%q): bad = %q, want substring %q", tc.body, d.bad, tc.badSubstring)
			}
			continue
		}
		if d.bad != "" {
			t.Errorf("parse(%q): rejected with %q, want analyzer %q", tc.body, d.bad, tc.analyzer)
			continue
		}
		if d.analyzer != tc.analyzer || d.reason != tc.reason {
			t.Errorf("parse(%q) = (%q, %q), want (%q, %q)", tc.body, d.analyzer, d.reason, tc.analyzer, tc.reason)
		}
	}
}

// checkSource typechecks src as a zero-import package under fixture/directive
// and runs nondeterm (zoned onto that path) plus the directive pass.
func checkSource(t *testing.T, src string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "directive.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := Typecheck(fset, fixturePath+"directive", []*ast.File{f}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	zones := []Zone{{Path: fixturePath + "directive"}}
	return Run(pkg, []*Analyzer{NewNondeterm(zones)})
}

func TestUnusedDirectiveReported(t *testing.T) {
	diags := checkSource(t, `package directive

func f() int {
	//lint:allow nondeterm(nothing to suppress here)
	return 1
}
`)
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(diags), diags)
	}
	if diags[0].Analyzer != DirectiveAnalyzer || !strings.Contains(diags[0].Message, "unused") {
		t.Errorf("got %q finding %q, want unused-directive", diags[0].Analyzer, diags[0].Message)
	}
}

func TestDirectiveOnUnrelatedLineFailsClosed(t *testing.T) {
	// The directive sits two lines above the violation: the violation must
	// still be reported AND the directive must be reported as unused.
	diags := checkSource(t, `package directive

func f(m map[string]int) int {
	//lint:allow nondeterm(too far from the range to count)

	for _, v := range m {
		return v
	}
	return 0
}
`)
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2 (violation + unused directive): %v", len(diags), diags)
	}
	var sawViolation, sawUnused bool
	for _, d := range diags {
		switch d.Analyzer {
		case "nondeterm":
			sawViolation = true
		case DirectiveAnalyzer:
			sawUnused = strings.Contains(d.Message, "unused")
		}
	}
	if !sawViolation || !sawUnused {
		t.Errorf("violation reported=%v, unused directive reported=%v, want both", sawViolation, sawUnused)
	}
}

func TestMalformedDirectiveFailsClosed(t *testing.T) {
	// Wrong analyzer name and missing reason: neither suppresses the
	// violation, and both are reported as malformed.
	diags := checkSource(t, `package directive

func f(m map[string]int) int {
	for _, v := range m { //lint:allow nosuch(wrong analyzer name)
		return v
	}
	for k := range m { //lint:allow nondeterm()
		_ = k
	}
	return 0
}
`)
	var violations, malformed int
	for _, d := range diags {
		switch d.Analyzer {
		case "nondeterm":
			violations++
		case DirectiveAnalyzer:
			if strings.Contains(d.Message, "malformed") {
				malformed++
			}
		}
	}
	if violations != 2 || malformed != 2 {
		t.Errorf("got %d violations and %d malformed-directive findings, want 2 and 2: %v",
			violations, malformed, diags)
	}
}

// checkSourceImports is checkSource for sources that import packages,
// resolved through the go list export-data path.
func checkSourceImports(t *testing.T, src string, imports ...string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "directive.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	exports, importMap, err := deps(".", imports...)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := Typecheck(fset, fixturePath+"directive", []*ast.File{f}, exports, importMap)
	if err != nil {
		t.Fatal(err)
	}
	zones := []Zone{{Path: fixturePath + "directive"}}
	return Run(pkg, []*Analyzer{NewNondeterm(zones)})
}

func TestDirectiveCoversMultiLineStatement(t *testing.T) {
	// Regression: the violation sits on the SECOND line of a statement whose
	// first line is directly below the directive. Line-pair matching alone
	// would miss it; the statement-span rule must suppress it.
	diags := checkSourceImports(t, `package directive

import "time"

func f() time.Time {
	//lint:allow nondeterm(wall-clock metadata, recorded outside the result)
	t :=
		time.Now()
	return t
}
`, "time")
	if len(diags) != 0 {
		t.Fatalf("got %d findings, want 0 (directive must cover the whole statement span): %v", len(diags), diags)
	}
}

func TestDirectiveTrailingMultiLineStatement(t *testing.T) {
	// The directive trails the statement's LAST line; the violation is on an
	// earlier line of the same statement.
	diags := checkSourceImports(t, `package directive

import "time"

func f() time.Time {
	t := time.Now().
		Add(0) //lint:allow nondeterm(wall-clock metadata, recorded outside the result)
	return t
}
`, "time")
	if len(diags) != 0 {
		t.Fatalf("got %d findings, want 0 (trailing directive must cover the statement span): %v", len(diags), diags)
	}
}

func TestDirectiveSpanDoesNotLeakToSiblings(t *testing.T) {
	// Two separate statements: the directive above the first must not cover
	// the second, and a directive inside a block must not silence the
	// enclosing statement tree.
	diags := checkSourceImports(t, `package directive

import "time"

func f() time.Time {
	//lint:allow nondeterm(only the first read is metadata)
	a :=
		time.Now()
	b := time.Now()
	_ = a
	return b
}
`, "time")
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want 1 (second statement stays reported): %v", len(diags), diags)
	}
	if diags[0].Analyzer != "nondeterm" {
		t.Errorf("finding = %v, want the sibling nondeterm violation", diags[0])
	}
}

func TestWellFormedDirectiveSuppresses(t *testing.T) {
	diags := checkSource(t, `package directive

func f(m map[string]int) int {
	for _, v := range m { //lint:allow nondeterm(order-independent sum)
		return v
	}
	return 0
}
`)
	if len(diags) != 0 {
		t.Fatalf("got %d findings, want 0: %v", len(diags), diags)
	}
}
