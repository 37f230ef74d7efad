package main

import (
	"reflect"
	"strings"
	"testing"

	"dresar/internal/figures"
)

func TestCheckFlags(t *testing.T) {
	all := strings.Join(figures.Apps, ",")
	for _, c := range []struct {
		fig                int
		scale, apps, sizes string
		want               []int // nil: an error
	}{
		{0, "small", all, "0,256,512,1024,2048", []int{0, 256, 512, 1024, 2048}},
		{8, "paper", all, "0, 4,16", []int{0, 4, 16}},
		{12, "small", all, "1024", []int{1024}},
		{8, "small", all, "0,768", nil},
		{8, "small", all, "10", nil},
		{8, "small", all, "-256", nil},
		{8, "small", all, "0,x", nil},
		{8, "small", all, "", nil},
		{7, "small", all, "0", nil},
		{8, "huge", all, "0", nil},
		{8, "small", "fft,nope", "0", nil},
		{8, "small", "fft,", "0", nil},
		{8, "small", "ge,tpcd", "0", []int{0}},
		{8, "paper", "ge", "0", []int{0}},
	} {
		sc, apps, got, err := checkFlags(c.fig, c.scale, c.apps, c.sizes)
		if (err != nil) != (c.want == nil) || (err == nil && !reflect.DeepEqual(got, c.want)) {
			t.Errorf("checkFlags(%d, %q, %q, %q) = %v, %v; want sizes %v", c.fig, c.scale, c.apps, c.sizes, got, err, c.want)
		}
		if err == nil && (sc == figures.ScalePaper) != (c.scale == "paper") {
			t.Errorf("checkFlags(%d, %q, %q, %q) scale = %v", c.fig, c.scale, c.apps, c.sizes, sc)
		}
		if err == nil && !reflect.DeepEqual(apps, strings.Split(c.apps, ",")) {
			t.Errorf("checkFlags(%d, %q, %q, %q) apps = %q", c.fig, c.scale, c.apps, c.sizes, apps)
		}
	}
}
