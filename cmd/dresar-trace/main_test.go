package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		in      string
		refs    uint64
		entries int
		bad     bool
	}{
		{"", 1000, 1024, false},
		{"", 1000, 0, false},
		{"", 1000, -3, true},
		{"", 0, 1024, true},
		{"x.trace", 0, 1024, false},
		{"x.trace", 0, -1, true},
		{"", 1000, 4, false},
		{"", 1000, 16, false},
		{"", 1000, 768, true},
		{"", 1000, 10, true},
		{"x.trace", 0, 24, true},
	} {
		if err := checkFlags(c.in, c.refs, c.entries); (err != nil) != c.bad {
			t.Errorf("checkFlags(%q, %d, %d) = %v, want an error: %v", c.in, c.refs, c.entries, err, c.bad)
		}
	}
}
