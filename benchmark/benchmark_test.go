package main

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/pkg/vnlclient"
)

func TestSupportedTail(t *testing.T) {
	// A percentile needs ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if !supports(minSamples, tailPercentile) || supports(minSamples-1, tailPercentile) {
		t.Errorf("minSamples = %d is not the least series that supports p%d", minSamples, tailPercentile)
	}
}

func TestPercentile(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	v := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %g, want %g", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0].
	if got, want := quartileSpread([]float64{4, 1, 2}), 1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread of three = %g, want %g", got, want)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b, c := streamHash(w, 1, 500), streamHash(w, 1, 500), streamHash(w, 2, 500)
		if a != b {
			t.Errorf("%s: seed 1 gave op-stream hashes %x and %x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same op stream", w.name)
		}
	}
}

func TestFeedBatchShape(t *testing.T) {
	f := newFeed(7, smallRows)
	or := newOracle(smallRows)
	vn := uint64(1)
	for k := 0; k*loadBatchRows < smallRows; k++ {
		vn++
		if err := or.apply(loadBatch(7, k, smallRows), vn); err != nil {
			t.Fatal(err)
		}
	}
	for b := 0; b < 3; b++ {
		ds := f.next()
		if len(ds) != batchDeltas {
			t.Fatalf("batch of %d deltas, want %d", len(ds), batchDeltas)
		}
		touched := map[int64]int{}
		for _, d := range ds {
			if d.Op == vnlclient.DeltaUpdate {
				touched[d.Key[0].Int()]++
			}
		}
		twice := 0
		for _, n := range touched {
			if n > 1 {
				twice += n - 1
			}
		}
		if len(touched) != batchUpdates-batchRetouch || twice != batchRetouch {
			t.Errorf("updates touch %d keys with %d second touches, want %d and %d",
				len(touched), twice, batchUpdates-batchRetouch, batchRetouch)
		}
		// The oracle refuses any delta that misses its key, so applying the
		// batch proves no operation of the stream can fail.
		vn++
		if err := or.apply(ds, vn); err != nil {
			t.Fatal(err)
		}
		if len(or.rows) != smallRows {
			t.Errorf("table holds %d rows after batch %d, want %d", len(or.rows), b, smallRows)
		}
	}
}

func TestZipfHeadMass(t *testing.T) {
	// With s = 1.1 over 2^18 keys the hottest key draws 1/H ≈ 13.7 % of
	// the requests (H = Σ k^-1.1) and the ten hottest about 40 %.
	g := newQueryGen(1, 0, largeRows)
	const draws = 200000
	counts := map[int64]int{}
	for i := 0; i < draws; i++ {
		k := g.key()
		if k < 0 || k >= largeRows {
			t.Fatalf("key %d outside the table", k)
		}
		counts[k]++
	}
	var h float64
	for k := 1; k <= largeRows; k++ {
		h += math.Pow(float64(k), -zipfExponent)
	}
	top := make([]int, 0, len(counts))
	for _, n := range counts {
		top = append(top, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(top)))
	var ten int
	var wantTen float64
	for k := 1; k <= 10; k++ {
		ten += top[k-1]
		wantTen += math.Pow(float64(k), -zipfExponent) / h
	}
	if got, want := float64(top[0])/draws, 1/h; math.Abs(got-want) > 0.01 {
		t.Errorf("hottest key drew %.3f of the requests, want %.3f", got, want)
	}
	if got := float64(ten) / draws; math.Abs(got-wantTen) > 0.015 {
		t.Errorf("ten hottest keys drew %.3f of the requests, want %.3f", got, wantTen)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Kind: spClientQuery, Start: 0, End: 100, Op: 1},    // root: children cover [10,60] and [90,100] after clipping
		{Kind: spBackendQuery, Start: 10, End: 50, Op: 1},   // child
		{Kind: spBackendQuery, Start: 40, End: 60, Op: 1},   // overlaps the first
		{Kind: spBackendQuery, Start: 90, End: 120, Op: 1},  // runs past the parent
		{Kind: spClientApply, Start: 200, End: 300, Op: 2},  // root with a grandchild chain
		{Kind: spBackendApply, Start: 210, End: 290, Op: 2}, // child
		{Kind: spWALCommit, Start: 250, End: 280, Op: 2},    // grandchild: not subtracted from the root
		{Kind: spFsync, Start: 255, End: 275, Op: 2},        // child of the commit
		{Kind: spClientQuery, Start: 400, End: 410, Op: 3},  // no children
	}
	link(spans)
	wantParent := []int32{-1, 0, 0, 0, -1, 4, 5, 6, -1}
	for i, s := range spans {
		if s.Parent != wantParent[i] {
			t.Errorf("span %d: parent %d, want %d", i, s.Parent, wantParent[i])
		}
	}
	want := []int64{40, 40, 20, 30, 20, 50, 10, 20, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestShardPublishSplit(t *testing.T) {
	op := applyOp(1)
	spans := []span{
		{Kind: spBeforePrepare, Start: 100, End: 100, Op: op},
		{Kind: spEpochFsync, Start: 1100, End: 2100, Op: op}, // prepare record
		{Kind: spBeforeShardCommit, Start: 9100, End: 9100, Op: op},
		{Kind: spBeforeShardCommit, Start: 8100, End: 8100, Op: op}, // the first shard to commit
		{Kind: spBeforeFlip, Start: 12100, End: 12100, Op: op},
		{Kind: spEpochFsync, Start: 12200, End: 13000, Op: op}, // flip record
		{Kind: spBackendApply, Start: 0, End: 13100, Op: op},
	}
	m := map[string]float64{}
	shardPublishMetrics(m, spans)
	want := map[string]float64{"shard.prepare_us": 2, "shard.apply_us": 6, "shard.commit_us": 4, "shard.flip_us": 1}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("publish split %v, want %v", m, want)
	}
}

func TestOracleDetectsWrongAnswer(t *testing.T) {
	or := newOracle(loadBatchRows)
	ds := loadBatch(1, 0, loadBatchRows)
	if err := or.apply(ds, 2); err != nil {
		t.Fatal(err)
	}
	var rows, agg [][]int64
	counts, sums := map[int64]int64{}, map[int64]int64{}
	for _, d := range ds {
		id, grp, qty, amount := d.Row[0].Int(), d.Row[1].Int(), d.Row[2].Int(), d.Row[3].Int()
		if grp == 5 {
			rows = append(rows, []int64{id, qty, amount})
		}
		counts[grp]++
		sums[grp] += amount
	}
	for g := int64(0); g < groups; g++ {
		agg = append(agg, []int64{g, counts[g], sums[g]})
	}
	if err := or.verify(observeScan(2, 5, toTuples(rows))); err != nil {
		t.Errorf("correct scan refused: %v", err)
	}
	rows[3][2]++ // one amount off by one
	if err := or.verify(observeScan(2, 5, toTuples(rows))); err == nil {
		t.Error("scan with a wrong amount accepted")
	}
	if err := or.verify(observeScan(2, 5, toTuples(rows[1:]))); err == nil {
		t.Error("scan with a missing row accepted")
	}
	if err := or.verify(observeScan(3, 5, toTuples(rows))); err == nil {
		t.Error("scan at a VN nobody acknowledged accepted")
	}
	ob, err := observeAgg(2, toTuples(agg))
	if err != nil || or.verify(ob) != nil {
		t.Errorf("correct aggregate refused: %v %v", err, or.verify(ob))
	}
	agg[9][2]--
	if ob, _ = observeAgg(2, toTuples(agg)); or.verify(ob) == nil {
		t.Error("aggregate with a wrong sum accepted")
	}
}

func toTuples(rows [][]int64) []catalog.Tuple {
	out := make([]catalog.Tuple, len(rows))
	for i, r := range rows {
		out[i] = intTuple(r...)
	}
	return out
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in the code
// together: same command, workloads and metrics, bounds within the limit.
func TestBenchmarkJSON(t *testing.T) {
	f, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"sh", "benchmark/run.sh"}; !reflect.DeepEqual(f.Command, want) {
		t.Errorf("command %v, want %v", f.Command, want)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q, code has %q", i, f.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, file, code []metricDef, bounded bool) {
		if len(file) != len(code) {
			t.Fatalf("%d %s metrics in the file, %d in the code", len(file), kind, len(code))
		}
		for i, d := range code {
			g := file[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: file has %+v, code has %+v", kind, i, g, d)
			}
			// -write-bounds may have widened a bound, never narrowed it.
			if bounded && (g.Bound < d.Bound || g.Bound > maxBound) {
				t.Errorf("%s: bound %g outside [%g, %g]", g.Name, g.Bound, d.Bound, maxBound)
			}
		}
	}
	same("end-to-end", f.EndToEnd, endToEnd, true)
	same("per-layer", f.PerLayer, perLayer, false)
}

// TestSmoke runs every workload with one-second windows: set-up, both
// windows, the allocation probe, the ladder, every correctness check and the
// recovery of what the durable topologies wrote.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs for about fifteen seconds")
	}
	var out bytes.Buffer
	err := run(options{seed: 1, trace: -1, smoke: true, outDir: t.TempDir()}, &out)
	t.Log(out.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if !strings.Contains(out.String(), w.name+": end to end (tracing off)") {
			t.Errorf("no end-to-end report for %s", w.name)
		}
	}
	if strings.Contains(out.String(), "VIOLATION") {
		t.Error("a correctness check failed")
	}
}
