package qos

import (
	"errors"
	"testing"
)

// FuzzParseLadder drives the -qos flag parser with arbitrary specs: it
// must never panic, every rejection wraps ErrBadLadder, and an accepted
// ladder validates and builds a controller.
func FuzzParseLadder(f *testing.F) {
	f.Add("")
	f.Add("on")
	f.Add("tick=5ms,hold=6,short=2,long=4,enter=0.1/0.2/0.3,exit=0.04/0.08/0.15")
	f.Add("budget=0.1,page=5,headroom=15")
	f.Fuzz(func(t *testing.T, spec string) {
		l, err := ParseLadder(spec)
		if err != nil {
			if !errors.Is(err, ErrBadLadder) {
				t.Fatalf("ParseLadder(%q): error %v does not wrap ErrBadLadder", spec, err)
			}
			return
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("ParseLadder(%q) accepted a ladder that fails Validate: %v", spec, err)
		}
		if _, err := NewController(l); err != nil {
			t.Fatalf("ParseLadder(%q) accepted a ladder NewController refuses: %v", spec, err)
		}
	})
}

// FuzzParseClass drives the request-class parser: no panic, rejections
// wrap ErrBadLadder, and an accepted class round-trips through String.
func FuzzParseClass(f *testing.F) {
	for _, s := range []string{"", "interactive", "std", " best-effort ", "BE", "vip"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseClass(s)
		if err != nil {
			if !errors.Is(err, ErrBadLadder) {
				t.Fatalf("ParseClass(%q): error %v does not wrap ErrBadLadder", s, err)
			}
			return
		}
		if back, err := ParseClass(c.String()); err != nil || back != c {
			t.Fatalf("ParseClass(%q) = %v, but ParseClass(%q) = %v, %v", s, c, c.String(), back, err)
		}
	})
}
