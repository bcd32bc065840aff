package main

import (
	"reflect"
	"strings"
	"testing"
)

// classOf names a stream job's class from its tenant: hot, warm or cold.
func classOf(s spec) string {
	c, _, _ := strings.Cut(s.Tenant, "-")
	return c
}

func TestSweepDeterministicPerSeed(t *testing.T) {
	a, b, c := sweep{seed: 7}, sweep{seed: 7}, sweep{seed: 8}
	same, diff := true, false
	for i := 0; i < 40; i++ {
		same = same && a.at(i) == b.at(i)
		diff = diff || a.at(i) != c.at(i)
	}
	if !same || !diff {
		t.Fatalf("same seed repeats: %v, other seed differs: %v", same, diff)
	}
}

func TestSweepKeepsMixInEveryRound(t *testing.T) {
	for _, racing := range []bool{false, true} {
		want := map[string]int{"tpch-1": 1, "tpch-10": 1, "tpcds-1": 2, "job": 1}
		if racing {
			want = map[string]int{"tpch-1": 1, "tpch-10": 1, "tpcds-1": 4, "job": 2}
		}
		g := sweep{seed: 3, racing: racing}
		n := len(g.benchmarks())
		seeds := map[int64]bool{}
		for r := 0; r < 40; r++ {
			got := map[string]int{}
			for j := 0; j < n; j++ {
				s := g.at(r*n + j)
				got[s.Benchmark]++
				seeds[s.Seed] = true
				if s.Racing != racing || s.Parallelism != 1 || s.Seed < 1 {
					t.Fatalf("bad spec %+v", s)
				}
				if o := s.options(); racing && (o.Samples != 20 || o.Evaluation.Strategy != 1) || !racing && o.Samples != 5 {
					t.Fatalf("options %+v for racing=%v", o, racing)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d has mix %v, want %v", r, got, want)
			}
		}
		if len(seeds) != 40*n {
			t.Fatalf("%d distinct LLM seeds in %d jobs", len(seeds), 40*n)
		}
	}
}

func TestStreamDeterministicPerSeed(t *testing.T) {
	a, b, c := stream{5}, stream{5}, stream{6}
	same, diff := true, false
	for i := 0; i < 3*streamRound; i++ {
		same = same && a.at(i) == b.at(i)
		diff = diff || a.at(i) != c.at(i)
	}
	if !same || !diff {
		t.Fatalf("same seed repeats: %v, other seed differs: %v", same, diff)
	}
}

func TestStreamKeepsSkew(t *testing.T) {
	g := stream{11}
	const rounds = 24 // a whole number of hot, warm and cold rotations
	class := map[string]int{}
	bench := map[string]map[string]int{}
	hot := map[spec]bool{}
	warmSeed := map[string]int64{}
	coldSeeds := map[int64]bool{}
	for i := 0; i < rounds*streamRound; i++ {
		s := g.at(i)
		c := classOf(s)
		class[c]++
		if bench[c] == nil {
			bench[c] = map[string]int{}
		}
		bench[c][s.Benchmark]++
		if s.Parallelism != 2 {
			t.Fatalf("job %d runs at P%d, want P2", i, s.Parallelism)
		}
		switch classOf(s) {
		case "hot":
			hot[spec{Seed: s.Seed, Tenant: s.Tenant}] = true
		case "warm":
			if prev, ok := warmSeed[s.Tenant]; ok && prev != s.Seed {
				t.Fatalf("warm tenant %s changed seed", s.Tenant)
			}
			warmSeed[s.Tenant] = s.Seed
		case "cold":
			if coldSeeds[s.Seed] {
				t.Fatalf("cold seed %d repeats", s.Seed)
			}
			coldSeeds[s.Seed] = true
		}
	}
	n := rounds * streamRound
	if class["hot"] != n/2 || class["warm"] != 3*n/10 || class["cold"] != n/5 {
		t.Fatalf("class mix %v, want 50/30/20%% of %d", class, n)
	}
	if len(hot) != 1 || len(warmSeed) != warmTenants {
		t.Fatalf("%d hot specs, %d warm tenants; want 1 and %d", len(hot), len(warmSeed), warmTenants)
	}
	for _, c := range []string{"hot", "cold"} {
		for _, b := range streamBenchmarks {
			if bench[c][b] != class[c]/len(streamBenchmarks) {
				t.Fatalf("%s jobs per benchmark %v, want equal shares", c, bench[c])
			}
		}
	}

	// The warm-up round shares the hot and warm specs but not the cold ones.
	for _, s := range (stream{warmupSeed}).round(-1) {
		switch classOf(s) {
		case "hot":
			if !hot[spec{Seed: s.Seed, Tenant: s.Tenant}] {
				t.Fatalf("warm-up hot job %+v differs from the stream's", s)
			}
		case "warm":
			if warmSeed[s.Tenant] != s.Seed {
				t.Fatalf("warm-up warm job %+v differs from the stream's", s)
			}
		case "cold":
			if coldSeeds[s.Seed] {
				t.Fatalf("warm-up cold seed %d reappears in the window", s.Seed)
			}
		}
	}
}
