package main

import (
	"strconv"
	"strings"

	"varbench"
	"varbench/e2ebench/trace"
	"varbench/store"
)

// timedStore is a store.Backend decorator that opens a span around every
// read, write and flush the collection engine issues. Spans nest under the
// tracer's current scope (the Run call that issued them) and carry the
// trial index parsed from the cell key, so a trial's store calls share its
// ID. Close is left to the program, which times its own call.
type timedStore struct {
	store.Backend
	tr *trace.Tracer
}

func (s *timedStore) Get(key, fp string) (float64, bool) {
	i := s.tr.Start(trace.StoreGet, s.tr.Scope(), keyID(key))
	v, ok := s.Backend.Get(key, fp)
	s.tr.End(i)
	if ok {
		s.tr.Add(trace.CountStoreHits, 1)
	}
	return v, ok
}

func (s *timedStore) Put(key, fp string, score float64) error {
	i := s.tr.Start(trace.StorePut, s.tr.Scope(), keyID(key))
	err := s.Backend.Put(key, fp, score)
	s.tr.End(i)
	return err
}

func (s *timedStore) GetJSON(key, fp string, v any) (bool, error) {
	i := s.tr.Start(trace.StoreGetJSON, s.tr.Scope(), trace.NoID)
	ok, err := s.Backend.GetJSON(key, fp, v)
	s.tr.End(i)
	return ok, err
}

func (s *timedStore) PutJSON(key, fp string, v any) error {
	i := s.tr.Start(trace.StorePutJSON, s.tr.Scope(), trace.NoID)
	err := s.Backend.PutJSON(key, fp, v)
	s.tr.End(i)
	return err
}

func (s *timedStore) Flush() error {
	i := s.tr.Start(trace.StoreFlush, s.tr.Scope(), trace.NoID)
	err := s.Backend.Flush()
	s.tr.End(i)
	return err
}

// keyID extracts the trial index from a store.TrialKey-shaped key
// ("…/run=N/…"), or NoID for any other key.
func keyID(key string) int64 {
	_, rest, ok := strings.Cut(key, "/run=")
	if !ok {
		return trace.NoID
	}
	n, _, _ := strings.Cut(rest, "/")
	id, err := strconv.ParseInt(n, 10, 64)
	if err != nil {
		return trace.NoID
	}
	return id
}

// timedTrial wraps a pipeline in a trial span under the current scope;
// both sides of a pair share the trial index as their ID.
func timedTrial(tr *trace.Tracer, f varbench.TrialFunc) varbench.TrialFunc {
	return func(t varbench.Trial) (float64, error) {
		i := tr.Start(trace.Trial, tr.Scope(), int64(t.Index))
		defer tr.End(i)
		return f(t)
	}
}
