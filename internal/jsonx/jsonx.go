// Package jsonx marshals values like encoding/json but encodes NaN and ±Inf
// floating-point values as JSON null instead of failing. encoding/json
// rejects non-finite numbers outright ("json: unsupported value: NaN"),
// which turns a single undefined statistic — a Shapiro-Wilk p-value outside
// its supported n range, a correlation of a zero-variance sample — into a
// render error for the whole report. JSON has no non-finite literals, so
// null is the faithful encoding of "this number is undefined".
//
// The walker honors the encoding/json conventions the report types use:
// `json:"name,omitempty"` tags, `json:"-"`, json.Marshaler implementations,
// []byte-as-base64, sorted map keys and struct field order. It does not
// support the `,string` tag option or anonymous-field name conflicts, which
// none of this module's types use.
package jsonx

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
)

// Marshal is a drop-in replacement for json.Marshal that encodes non-finite
// floats as null.
func Marshal(v any) ([]byte, error) {
	tree, err := sanitize(reflect.ValueOf(v))
	if err != nil {
		return nil, err
	}
	return json.Marshal(tree) //lint:allow jsonsafe(tree is the sanitizer's own output: every non-finite float is already a string)
}

var marshalerType = reflect.TypeOf((*json.Marshaler)(nil)).Elem()

// sanitize converts v into a tree of plain values (orderedObject, []any,
// finite numbers, nil) that json.Marshal encodes exactly as it would have
// encoded v, except that non-finite floats become nil.
func sanitize(v reflect.Value) (any, error) {
	if !v.IsValid() {
		return nil, nil
	}
	// A type's own MarshalJSON wins, as in encoding/json; its output is
	// passed through verbatim as a RawMessage.
	if v.Type().Implements(marshalerType) {
		if v.Kind() == reflect.Pointer && v.IsNil() {
			return nil, nil
		}
		b, err := v.Interface().(json.Marshaler).MarshalJSON()
		if err != nil {
			return nil, err
		}
		return json.RawMessage(b), nil
	}
	if v.CanAddr() && reflect.PointerTo(v.Type()).Implements(marshalerType) {
		return sanitize(v.Addr())
	}

	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		f := v.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, nil
		}
		return v.Interface(), nil
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return nil, nil
		}
		return sanitize(v.Elem())
	case reflect.Slice:
		if v.IsNil() {
			return nil, nil
		}
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return v.Interface(), nil // []byte stays base64
		}
		fallthrough
	case reflect.Array:
		out := make([]any, v.Len())
		for i := range out {
			e, err := sanitize(v.Index(i))
			if err != nil {
				return nil, err
			}
			out[i] = e
		}
		return out, nil
	case reflect.Map:
		if v.IsNil() {
			return nil, nil
		}
		if v.Type().Key().Kind() != reflect.String {
			// The module only marshals string-keyed maps; anything else is
			// passed through to encoding/json untouched.
			return v.Interface(), nil
		}
		obj := &orderedObject{}
		keys := v.MapKeys()
		names := make([]string, len(keys))
		byName := make(map[string]reflect.Value, len(keys))
		for i, k := range keys {
			names[i] = k.String()
			byName[names[i]] = k
		}
		sort.Strings(names)
		for _, name := range names {
			e, err := sanitize(v.MapIndex(byName[name]))
			if err != nil {
				return nil, err
			}
			obj.add(name, e)
		}
		return obj, nil
	case reflect.Struct:
		obj := &orderedObject{}
		if err := sanitizeStruct(v, obj); err != nil {
			return nil, err
		}
		return obj, nil
	default:
		return v.Interface(), nil
	}
}

// sanitizeStruct appends v's fields to obj, flattening untagged anonymous
// struct fields the way encoding/json promotes them.
func sanitizeStruct(v reflect.Value, obj *orderedObject) error {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("json")
		if tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		// An untagged embedded struct promotes its exported fields, even
		// when the embedded type itself is unexported.
		if f.Anonymous && name == "" && f.Type.Kind() == reflect.Struct {
			if err := sanitizeStruct(v.Field(i), obj); err != nil {
				return err
			}
			continue
		}
		if !f.IsExported() {
			continue
		}
		fv := v.Field(i)
		if hasOpt(opts, "omitempty") && isEmpty(fv) {
			continue
		}
		if name == "" {
			name = f.Name
		}
		e, err := sanitize(fv)
		if err != nil {
			return fmt.Errorf("field %s: %w", f.Name, err)
		}
		obj.add(name, e)
	}
	return nil
}

func hasOpt(opts, want string) bool {
	for opts != "" {
		var o string
		o, opts, _ = strings.Cut(opts, ",")
		if o == want {
			return true
		}
	}
	return false
}

// isEmpty mirrors the encoding/json omitempty rule.
func isEmpty(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Array, reflect.Map, reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32,
		reflect.Int64, reflect.Uint, reflect.Uint8, reflect.Uint16,
		reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64:
		return v.IsZero()
	case reflect.Pointer, reflect.Interface:
		return v.IsNil()
	}
	return false
}

// orderedObject is a JSON object that marshals its keys in insertion order,
// preserving struct field order the way encoding/json does (a plain map
// would sort them).
type orderedObject struct {
	names []string
	vals  []any
}

func (o *orderedObject) add(name string, v any) {
	o.names = append(o.names, name)
	o.vals = append(o.vals, v)
}

// MarshalJSON implements json.Marshaler.
func (o *orderedObject) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, name := range o.names {
		if i > 0 {
			buf.WriteByte(',')
		}
		k, err := json.Marshal(name)
		if err != nil {
			return nil, err
		}
		buf.Write(k)
		buf.WriteByte(':')
		v, err := json.Marshal(o.vals[i]) //lint:allow jsonsafe(vals hold sanitized subtrees built by sanitize, never raw floats)
		if err != nil {
			return nil, err
		}
		buf.Write(v)
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}
