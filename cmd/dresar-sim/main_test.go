package main

import (
	"testing"

	"dresar/internal/core"
	"dresar/internal/workload"
)

func TestCheckFlags(t *testing.T) {
	type flags struct {
		app                                string
		size, iters, entries, pending, swc int
		itersSet                           bool
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
		{"entries 4", func(f *flags) { f.entries = 4 }, false},
		{"entries 768", func(f *flags) { f.entries = 768 }, true},
		{"entries 10", func(f *flags) { f.entries = 10 }, true},
		{"swcache 4", func(f *flags) { f.swc = 4 }, false},
		{"swcache 512", func(f *flags) { f.swc = 512 }, false},
		{"swcache 24", func(f *flags) { f.swc = 24 }, true},
		{"swcache 10", func(f *flags) { f.swc = 10 }, true},
		{"swcache 768 on the base system", func(f *flags) { f.entries, f.swc = 0, 768 }, true},
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
		{"sor 32 -iters 2", func(f *flags) { f.app, f.size, f.iters, f.itersSet = "sor", 32, 2, true }, false},
		{"sor -iters 1", func(f *flags) { f.app, f.iters, f.itersSet = "sor", 1, true }, false},
		{"fft -iters 2", func(f *flags) { f.iters, f.itersSet = 2, true }, true},
		{"fft -iters 4", func(f *flags) { f.itersSet = true }, true},
		{"tc 64 -iters 1", func(f *flags) { f.app, f.size, f.iters, f.itersSet = "tc", 64, 1, true }, true},
		{"lu -iters 2", func(f *flags) { f.app, f.iters, f.itersSet = "lu", 2, true }, true},
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
		err := checkFlags(f.app, f.size, f.iters, f.itersSet, f.entries, f.pending, f.swc)
		if (err != nil) != c.bad {
			t.Errorf("%s: checkFlags(%+v) = %v, want an error: %v", c.name, f, err, c.bad)
		}
	}
}

// TestSORDefaultSizeHonorsIters runs what `dresar-sim -app sor -iters
// 1` runs: SOR at its default 512×512 grid for one iteration, which
// reads 1040400 words (four iterations read 4161600).
func TestSORDefaultSizeHonorsIters(t *testing.T) {
	w, err := newWorkload("sor", 0, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(core.DefaultConfig().WithSwitchDir(1024))
	if err != nil {
		t.Fatal(err)
	}
	d, err := workload.NewDriver(m, w)
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s.Reads != 1040400 {
		t.Fatalf("sor -iters 1 at the default size: reads=%d, want 1040400", s.Reads)
	}
}
