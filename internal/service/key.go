package service

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"runtime/debug"
	"sync"

	"swiftsim/internal/config"
	"swiftsim/internal/regress"
	"swiftsim/internal/sim"
	"swiftsim/internal/trace"
)

// keySchema versions the key derivation itself; bump it when what the key
// folds in changes. Schema 4 replaced the hand-written option list with
// sim.Identity.
const keySchema = "swiftsim-service-key 4"

// jobKey derives the persistent cache key of one simulation job. Two jobs
// share a key exactly when they are guaranteed byte-identical canonical
// results: the key is sim.Identity (GPU configuration, trace content and
// every result-affecting option, as the run uses them) plus what only the
// cache needs — the canonical rendering format (regress.CanonicalVersion)
// and the code version (VCS revision when built from a checkout; any code
// change may legitimately move metrics, so a new build starts cold rather
// than serving stale values). Scheduler and Trace must be unset — the
// service never sets them, and a custom scheduler would change results
// without changing the key.
func jobKey(app *trace.App, gpu config.GPU, opts sim.Options) string {
	h := sha256.New()
	io.WriteString(h, keySchema+"\n")
	io.WriteString(h, regress.CanonicalVersion+"\n")
	io.WriteString(h, codeVersion()+"\n")
	id := sim.Identity(app, gpu, opts)
	h.Write(id[:])
	return hex.EncodeToString(h.Sum(nil))
}

var (
	codeVersionOnce sync.Once
	codeVersionVal  string
)

// codeVersion identifies the running build: the VCS revision (plus a
// dirty marker) when available, else a fixed placeholder. Builds without
// VCS stamping — go test binaries, plain `go run` — share one cold
// namespace, which only ever costs recomputation, never staleness within
// a single test process.
func codeVersion() string {
	codeVersionOnce.Do(func() {
		codeVersionVal = "unversioned"
		info, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		var rev, dirty string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			codeVersionVal = rev + dirty
		}
	})
	return codeVersionVal
}
