package main

import (
	"fmt"
	"math/rand"

	"lambdatune"
)

// spec is one generated job: everything the program receives about it.
type spec struct {
	Benchmark   string
	Seed        int64
	Samples     int // k, the LLM candidates (0 = the paper default, 5)
	Racing      bool
	Parallelism int
	// Tenant is daemon-stream only: "hot", "warm-<t>" or "cold-<k>".
	Tenant string
}

// refKey identifies the standalone run a job must reproduce. Tenants never
// change a result, so they are not part of it.
func (s spec) refKey() string {
	return fmt.Sprintf("%s/%d/k%d/racing=%v/p%d", s.Benchmark, s.Seed, s.Samples, s.Racing, s.Parallelism)
}

// options are the tuning options the job runs with: paper defaults (k=5)
// plus the racing setting of E14 (k=20) and the daemon's parallelism.
func (s spec) options() lambdatune.Options {
	opts := lambdatune.DefaultOptions()
	opts.Seed = s.Seed
	opts.Tenant = s.Tenant
	opts.Evaluation.Parallelism = s.Parallelism
	if s.Samples > 0 {
		opts.Samples = s.Samples
	}
	if s.Racing {
		opts.Evaluation.Strategy = lambdatune.Racing
	}
	return opts
}

// mix derives an independent stream seed from (seed, salt) with the
// splitmix64 finalizer, so sub-streams never overlap for nearby seeds.
func mix(seed, salt int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(salt)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// jobSeed maps a derived value to a positive tuning seed.
func jobSeed(v int64) int64 { return 1 + int64(uint64(v)%(1<<31)) }

// tuneRound is one round of tune-sweep's mix, tpch-1:tpch-10:tpcds-1:job =
// 1:1:2:1. Sorted by latency, tpch-1 and tpch-10 fill the first 40% of the
// jobs, tpcds-1 the next 40% and job the last 20% (each run prints its class
// table), so p50 falls inside tpcds-1 and p90 at the median of job.
var tuneRound = []string{"tpch-1", "tpch-10", "tpcds-1", "tpcds-1", "job"}

// raceRound is race-sweep's mix, 1:1:4:2: the light classes fill the first
// 25% of the jobs, tpcds-1 the next 50% and job the last 25%, so p50 falls
// at the median of tpcds-1 and p90 near the median of job. Under 1:1:2:1 its
// p50 fell at the lower quartile of tpcds-1, whose racing latency spread
// twice as much between runs of one seed as the class median did.
var raceRound = []string{"tpch-1", "tpch-10", "tpcds-1", "tpcds-1", "tpcds-1", "tpcds-1", "job", "job"}

// Salts separating the generators' sub-streams.
const (
	saltSweep = 1
	saltCold  = 2
	saltRound = 3
)

// raceSamples is race-sweep's k, the E14 setting.
const raceSamples = 20

// warmupSeed seeds the untimed warm-up jobs. It is fixed, so every run's
// set-up does the same work whatever its --seed.
const warmupSeed = -1

// sweep generates the sweep jobs of one seed: an unbounded list in which
// every job has its own LLM seed, so a window averages over many draws.
type sweep struct {
	seed   int64
	racing bool
}

// benchmarks returns the benchmarks of one round of the sweep.
func (g sweep) benchmarks() []string {
	if g.racing {
		return raceRound
	}
	return tuneRound
}

// round returns the jobs of round r: the exact mix in a seeded order, so
// every prefix of whole rounds keeps the stated weights.
func (g sweep) round(r int) []spec {
	bs := g.benchmarks()
	rng := rand.New(rand.NewSource(mix(mix(g.seed, saltSweep), int64(r))))
	out := make([]spec, 0, len(bs))
	for _, i := range rng.Perm(len(bs)) {
		s := spec{Benchmark: bs[i], Seed: jobSeed(rng.Int63()), Racing: g.racing, Parallelism: 1}
		if g.racing {
			s.Samples = raceSamples
		}
		out = append(out, s)
	}
	return out
}

// at returns sweep job i (i >= 0).
func (g sweep) at(i int) spec {
	n := len(g.benchmarks())
	return g.round(i / n)[i%n]
}

// The daemon-stream mix, after E16: per round of ten jobs, five come from one
// hot tenant resubmitting one seed, three from eight warm tenants each
// repeating its own seed, and two are cold singletons seen once.
const (
	streamRound = 10
	hotPerRound = 5
	warmPerRnd  = 3
	warmTenants = 8
)

// The hot and warm specs are E16's at seed 1: hot seed 1, warm tenant t at
// seed 2+t. They are fixed because half the stream repeats the hot spec: a
// hot seed drawn per run would set the whole run's cost by itself. The run
// seed draws the cold singletons and the order.
const (
	hotSeed      = 1
	warmSeedBase = 2
)

// streamBenchmarks is the daemon-stream benchmark rotation. Hot and cold
// jobs cycle through it in order; warm tenant t runs streamBenchmarks[t%3].
var streamBenchmarks = []string{"tpch-1", "tpcds-1", "job"}

// stream generates the daemon-stream jobs; job i depends only on the seed
// and i, so any number of clients can draw from it in order.
type stream struct{ seed int64 }

// round returns the ten jobs of round r in their seeded order. Round -1 of
// the warm-up seed is the untimed warm-up round.
func (s stream) round(r int) []spec {
	out := make([]spec, 0, streamRound)
	for j := 0; j < hotPerRound; j++ {
		k := (r+1)*hotPerRound + j
		out = append(out, spec{Benchmark: streamBenchmarks[k%len(streamBenchmarks)], Seed: hotSeed,
			Parallelism: 2, Tenant: "hot"})
	}
	for j := 0; j < warmPerRnd; j++ {
		t := ((r+1)*warmPerRnd + j) % warmTenants
		out = append(out, spec{Benchmark: streamBenchmarks[t%len(streamBenchmarks)], Seed: warmSeedBase + int64(t),
			Parallelism: 2, Tenant: fmt.Sprintf("warm-%d", t)})
	}
	for j := 0; j < streamRound-hotPerRound-warmPerRnd; j++ {
		k := (r+1)*(streamRound-hotPerRound-warmPerRnd) + j
		out = append(out, spec{Benchmark: streamBenchmarks[k%len(streamBenchmarks)],
			Seed: jobSeed(mix(mix(s.seed, saltCold), int64(k))), Parallelism: 2,
			Tenant: fmt.Sprintf("cold-%d", k)})
	}
	rng := rand.New(rand.NewSource(mix(mix(s.seed, saltRound), int64(r))))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// at returns stream job i (i >= 0).
func (s stream) at(i int) spec { return s.round(i / streamRound)[i%streamRound] }
