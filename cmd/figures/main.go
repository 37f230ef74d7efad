// Command figures regenerates the paper's result figures (1, 2, 8, 9,
// 10, 11) and prints the corresponding tables, plus two extensions
// beyond the paper: -fig 12 (switch directory + switch cache) and
// -fig 13 (the design ablations).
//
// Usage:
//
//	figures [-fig N] [-scale small|paper] [-apps fft,tc,...] [-sizes 0,256,...]
//
// With no -fig, every paper figure is produced. Figures 8–11 share one
// (app × directory-size) sweep. An unknown -fig, -scale or -apps entry,
// or a size that is negative or that the switch directories cannot be
// built with (such as 768: 192 sets of 4 ways), exits 2 before any
// cell runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dresar/internal/figures"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (1,2,8,9,10,11; 12 = extension E1, 13 = ablations); 0 = all paper figures")
	scaleStr := flag.String("scale", "small", "input scale: small or paper (Table 2/3 sizes)")
	appsStr := flag.String("apps", strings.Join(figures.Apps, ","), "comma-separated workload list")
	sizesStr := flag.String("sizes", "0,256,512,1024,2048", "switch-directory sizes (0 = base)")
	csvOut := flag.String("csv", "", "also write the raw sweep (and Fig 2 CDF) as CSV to this file prefix")
	flag.Parse()
	scale, apps, sizes, err := checkFlags(*fig, *scaleStr, *appsStr, *sizesStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(2)
	}

	want := func(n int) bool { return *fig == 0 || *fig == n }

	if want(1) {
		text, _, err := figures.Fig1(scale)
		die(err)
		fmt.Println(text)
	}
	if want(2) {
		text, rows, err := figures.Fig2(scale)
		die(err)
		fmt.Println(text)
		if *csvOut != "" {
			die(os.WriteFile(*csvOut+"_fig2.csv", []byte(figures.Fig2CSV(rows)), 0o644))
		}
	}
	if want(8) || want(9) || want(10) || want(11) {
		sweep, err := figures.SweepCtx(context.Background(), scale, apps, sizes, 0)
		die(err)
		if *csvOut != "" {
			die(os.WriteFile(*csvOut+"_sweep.csv", []byte(figures.SweepCSV(sweep)), 0o644))
		}
		if want(8) {
			fmt.Println(figures.Fig8(sweep))
		}
		if want(9) {
			fmt.Println(figures.Fig9(sweep))
		}
		if want(10) {
			fmt.Println(figures.Fig10(sweep))
		}
		if want(11) {
			fmt.Println(figures.Fig11(sweep))
		}
	}
	if *fig == 12 {
		text, err := figures.FigE1(scale)
		die(err)
		fmt.Println(text)
	}
	if *fig == 13 {
		text, err := figures.Ablations(scale)
		die(err)
		fmt.Println(text)
	}
}

// checkFlags validates -fig, -scale, -apps and -sizes and returns the
// scale, the apps and the sizes. Every app must be one the sweep can
// run (a kernel figures.ScientificWorkload builds, or a commercial
// trace) and every size one each sweep cell can be built with
// (figures.CheckSizes), so that a bad one fails before any cell runs.
func checkFlags(fig int, scale, apps, sizes string) (figures.Scale, []string, []int, error) {
	switch fig {
	case 0, 1, 2, 8, 9, 10, 11, 12, 13:
	default:
		return 0, nil, nil, fmt.Errorf("no figure %d", fig)
	}
	sc := figures.ScaleSmall
	switch scale {
	case "small":
	case "paper":
		sc = figures.ScalePaper
	default:
		return 0, nil, nil, fmt.Errorf("unknown scale %q", scale)
	}
	as := strings.Split(apps, ",")
	for _, a := range as {
		if figures.Commercial(a) {
			continue
		}
		if _, err := figures.ScientificWorkload(a, sc); err != nil {
			return 0, nil, nil, fmt.Errorf("unknown app %q: want one of %s (or ge for gauss)", a, strings.Join(figures.Apps, ", "))
		}
	}
	var ns []int
	for _, s := range strings.Split(sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return 0, nil, nil, fmt.Errorf("bad size %q: want a switch-directory entry count >= 0", s)
		}
		ns = append(ns, n)
	}
	return sc, as, ns, figures.CheckSizes(ns)
}

func die(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
}
