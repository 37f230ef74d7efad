package main

import "testing"

func TestCheckFlags(t *testing.T) {
	type flags struct {
		app                                string
		size, iters, entries, pending, swc int
	}
	ok := flags{app: "fft", iters: 4, entries: 1024}
	for _, c := range []struct {
		name string
		edit func(*flags)
		bad  bool
	}{
		{"defaults", func(*flags) {}, false},
		{"base system", func(f *flags) { f.entries = 0 }, false},
		{"negative entries", func(f *flags) { f.entries = -5 }, true},
		{"negative pending", func(f *flags) { f.pending = -3 }, true},
		{"negative swcache", func(f *flags) { f.swc = -1 }, true},
		{"fft 1024", func(f *flags) { f.size = 1024 }, false},
		{"fft 16K", func(f *flags) { f.size = 16384 }, false},
		{"fft 1000", func(f *flags) { f.size = 1000 }, true},
		{"fft 100", func(f *flags) { f.size = 100 }, true},
		{"fft 2048", func(f *flags) { f.size = 2048 }, true},
		{"fft -1", func(f *flags) { f.size = -1 }, true},
		{"tc -5", func(f *flags) { f.app, f.size = "tc", -5 }, true},
		{"tc 64", func(f *flags) { f.app, f.size = "tc", 64 }, false},
		{"sor -iters -2", func(f *flags) { f.app, f.size, f.iters = "sor", 32, -2 }, true},
		{"sor -iters 0", func(f *flags) { f.app, f.size, f.iters = "sor", 32, 0 }, true},
		{"sor 32", func(f *flags) { f.app, f.size = "sor", 32 }, false},
		{"ge", func(f *flags) { f.app = "ge" }, false},
		{"lu default", func(f *flags) { f.app = "lu" }, false},
		{"lu 64", func(f *flags) { f.app, f.size = "lu", 64 }, false},
		{"lu 40", func(f *flags) { f.app, f.size = "lu", 40 }, true},
		{"radix default", func(f *flags) { f.app = "radix" }, false},
		{"radix 4096", func(f *flags) { f.app, f.size = "radix", 4096 }, false},
		{"radix 1000", func(f *flags) { f.app, f.size = "radix", 1000 }, true},
		{"unknown kernel", func(f *flags) { f.app = "qsort" }, true},
	} {
		f := ok
		c.edit(&f)
		err := checkFlags(f.app, f.size, f.iters, f.entries, f.pending, f.swc)
		if (err != nil) != c.bad {
			t.Errorf("%s: checkFlags(%+v) = %v, want an error: %v", c.name, f, err, c.bad)
		}
	}
}
