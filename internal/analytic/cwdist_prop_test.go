package analytic

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Property: FromSamples already returns a normalized distribution, so a
// further Normalize must be the identity (and must not error); and
// Single(cw) must equal the one-sample FromSamples.
func TestCWDistNormalizeFromSamplesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	cwPool := []int{0, 7, 15, 31, 63, 127, 255, 511, 1023}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(500)
		samples := make([]int, n)
		for i := range samples {
			samples[i] = cwPool[rng.Intn(len(cwPool))]
		}
		d := FromSamples(samples)
		if sum := distSum(d); math.Abs(sum-1) > 1e-9 {
			t.Fatalf("trial %d: FromSamples sums to %v", trial, sum)
		}
		before := make(CWDist, len(d))
		for cw, p := range d {
			before[cw] = p
		}
		if err := d.Normalize(); err != nil {
			t.Fatalf("trial %d: Normalize of normalized dist errored: %v", trial, err)
		}
		if len(d) != len(before) {
			t.Fatalf("trial %d: Normalize changed support size", trial)
		}
		for cw, p := range before {
			if math.Abs(d[cw]-p) > 1e-12 {
				t.Fatalf("trial %d: Normalize moved mass at cw=%d: %v -> %v", trial, cw, p, d[cw])
			}
		}
	}
}

func TestSingleMatchesOneSampleFromSamples(t *testing.T) {
	for _, cw := range []int{0, 1, 31, 1023} {
		s := Single(cw)
		f := FromSamples([]int{cw})
		if len(s) != 1 || len(f) != 1 || s[cw] != 1 || f[cw] != 1 {
			t.Errorf("cw=%d: Single %v != FromSamples %v", cw, s, f)
		}
	}
}

func TestCWDistNormalizeRejectsInvalid(t *testing.T) {
	for name, d := range map[string]CWDist{
		"empty":        {},
		"zero mass":    {31: 0},
		"negative cw":  {-1: 1},
		"negative wgt": {31: -0.5, 63: 1.5},
	} {
		if err := d.Normalize(); err == nil {
			t.Errorf("%s distribution accepted", name)
		}
	}
}

// randomCWDist draws a normalized mixture over 1..12 distinct windows.
func randomCWDist(t *testing.T, rng *rand.Rand) CWDist {
	d := make(CWDist)
	for n := 1 + rng.Intn(12); len(d) < n; {
		d[rng.Intn(1024)] = rng.Float64() + 1e-3
	}
	if err := d.Normalize(); err != nil {
		t.Fatal(err)
	}
	return d
}

// Property: the sorted view holds exactly the map's support points, and
// its mixture CDFs equal, bit for bit, a reference that walks the map's
// sorted keys and looks each mass up.
func TestSortedViewMatchesMapReference(t *testing.T) {
	refAtLeast := func(d CWDist, x int) float64 {
		var p float64
		for _, cw := range sortedKeys(d) {
			p += d[cw] * backoffCDFAtLeast(cw, x)
		}
		return p
	}
	refAtMost := func(d CWDist, x int) float64 {
		var p float64
		for _, cw := range sortedKeys(d) {
			p += d[cw] * backoffCDFAtMost(cw, x)
		}
		return p
	}
	rng := rand.New(rand.NewSource(0x50f7))
	for trial := 0; trial < 200; trial++ {
		d := randomCWDist(t, rng)
		view := d.sorted()
		keys := sortedKeys(d)
		if len(view) != len(keys) {
			t.Fatalf("trial %d: view has %d points, map %d", trial, len(view), len(keys))
		}
		for i, e := range view {
			if e.cw != keys[i] || e.p != d[e.cw] {
				t.Fatalf("trial %d: view[%d] = %+v, want {%d %v}", trial, i, e, keys[i], d[keys[i]])
			}
		}
		maxCW := keys[len(keys)-1]
		for x := -5; x <= maxCW+5; x++ {
			if got, want := mixAtLeast(view, x), refAtLeast(d, x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: mixAtLeast(x=%d) = %b, reference %b", trial, x, got, want)
			}
			if got, want := mixAtMost(view, x), refAtMost(d, x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: mixAtMost(x=%d) = %b, reference %b", trial, x, got, want)
			}
		}
	}
}

func sortedKeys(d CWDist) []int {
	keys := make([]int, 0, len(d))
	for cw := range d {
		keys = append(keys, cw)
	}
	sort.Ints(keys)
	return keys
}

// The Equations 1–2 sums must not depend on map iteration order: Fig 3's
// stored model series is built from them and diffed byte-for-byte.
func TestSendProbabilitiesBitDeterministic(t *testing.T) {
	gs := CWDist{31: 0.35, 63: 0.25, 127: 0.2, 255: 0.1, 511: 0.06, 1023: 0.04}
	ns := CWDist{31: 0.5, 63: 0.3, 127: 0.15, 255: 0.05}
	pGS0, pNS0, err := SendProbabilities(gs, ns, 12)
	if err != nil {
		t.Fatal(err)
	}
	for call := 1; call < 100; call++ {
		pGS, pNS, err := SendProbabilities(gs, ns, 12)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(pGS) != math.Float64bits(pGS0) || math.Float64bits(pNS) != math.Float64bits(pNS0) {
			t.Fatalf("call %d: (%b, %b), first call (%b, %b)", call, pGS, pNS, pGS0, pNS0)
		}
	}
}
