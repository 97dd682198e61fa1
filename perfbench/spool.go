package main

import (
	"bufio"
	"encoding/gob"
	"errors"
	"io"
	"os"
)

// spool is an append-only log the generator keeps on disk while the load
// runs and reads back once it is over. Its memory is one write buffer, so
// the generator's logs never grow the heap that heap_peak_mb samples.
type spool[T any] struct {
	f   *os.File
	w   *bufio.Writer
	enc *gob.Encoder
	err error
}

func newSpool[T any](path string) (*spool[T], error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	return &spool[T]{f: f, w: w, enc: gob.NewEncoder(w)}, nil
}

// add appends v; the first error sticks and is returned by readAll.
func (s *spool[T]) add(v *T) {
	if s.err == nil {
		s.err = s.enc.Encode(v)
	}
}

// readAll flushes the log and decodes every entry, in order.
func (s *spool[T]) readAll() ([]T, error) {
	if s.err != nil {
		return nil, s.err
	}
	if err := s.w.Flush(); err != nil {
		return nil, err
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	dec := gob.NewDecoder(bufio.NewReader(s.f))
	var out []T
	for {
		var v T
		err := dec.Decode(&v)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
}

// close closes the log's file; the rig's directory removal deletes it.
// Later adds are dropped.
func (s *spool[T]) close() error {
	s.err = os.ErrClosed
	return s.f.Close()
}
