package service

import (
	"bytes"
	"encoding/json"
	"testing"

	"swiftsim/internal/sim"
)

// FuzzDecodeWireJob drives the worker's claim decoder and the option
// check every job passes before it runs with arbitrary bodies: both must
// return a value or a structured error, never panic. The seeds are a
// real wire job, its options pushed out of domain, and malformed JSON.
func FuzzDecodeWireJob(f *testing.F) {
	valid, err := json.Marshal(WireJob{
		Key: "k", LeaseID: "l1", Token: 1, App: "BFS", GPU: "RTX2080Ti", Sim: "memory",
		TraceBlob: "t", ConfigBlob: "c", LeaseTTLMS: 1000,
		Opts: sim.Options{Kind: sim.Basic, EngineThreads: 2, EpochCycles: 8,
			Sampling: sim.Sampling{Enabled: true, BlockFraction: 0.25, ReplayStride: 4, Seed: 7}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"opts":{"kind":9}}`))
	f.Add([]byte(`{"opts":{"kind":2,"hit_rates":7}}`))
	f.Add([]byte(`{"opts":{"sampling":{"enabled":true,"block_fraction":1.5,"replay_stride":-1}}}`))
	f.Add([]byte(`{"opts":{"kind":-1}}`))
	f.Add([]byte(`{"opts":`))
	f.Add([]byte(`null`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		job, err := decodeWireJob(bytes.NewReader(body))
		if err != nil {
			return
		}
		_ = job.Opts.Validate()
	})
}
