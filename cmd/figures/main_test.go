package main

import (
	"reflect"
	"testing"

	"dresar/internal/figures"
)

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		fig          int
		scale, sizes string
		want         []int // nil: an error
	}{
		{0, "small", "0,256,512,1024,2048", []int{0, 256, 512, 1024, 2048}},
		{8, "paper", "0, 4,16", []int{0, 4, 16}},
		{12, "small", "1024", []int{1024}},
		{8, "small", "0,768", nil},
		{8, "small", "10", nil},
		{8, "small", "-256", nil},
		{8, "small", "0,x", nil},
		{8, "small", "", nil},
		{7, "small", "0", nil},
		{8, "huge", "0", nil},
	} {
		sc, got, err := checkFlags(c.fig, c.scale, c.sizes)
		if (err != nil) != (c.want == nil) || (err == nil && !reflect.DeepEqual(got, c.want)) {
			t.Errorf("checkFlags(%d, %q, %q) = %v, %v; want sizes %v", c.fig, c.scale, c.sizes, got, err, c.want)
		}
		if err == nil && (sc == figures.ScalePaper) != (c.scale == "paper") {
			t.Errorf("checkFlags(%d, %q, %q) scale = %v", c.fig, c.scale, c.sizes, sc)
		}
	}
}
