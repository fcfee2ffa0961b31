package main

import (
	"fmt"
	"runtime"
	"sync"

	"evedge"
)

// Every workload streams one simulated second at half scale: long
// enough that each session sees hundreds of frames, short enough that
// scene generation (≈1.5 s of host per stream-second) keeps set-up in
// seconds. A variable only so the smoke test can shrink it.
var streamDurUS int64 = 1_000_000

const streamScale = evedge.HalfScale

// streamSpec names one synthetic sequence to generate.
type streamSpec struct {
	preset evedge.ScenePreset
	seed   int64
}

// genStreams generates the sequences on every CPU the process may use:
// scene rendering is the bulk of set-up and the sequences are
// independent. The result is in spec order and depends only on the
// specs.
func genStreams(specs []streamSpec) ([]*evedge.Stream, error) {
	out := make([]*evedge.Stream, len(specs))
	errs := make([]error, len(specs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, sp := range specs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			out[i], errs[i] = evedge.GenerateSequence(sp.preset, streamScale, sp.seed, streamDurUS)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("generate %s seed %d: %w", specs[i].preset, specs[i].seed, err)
		}
	}
	return out, nil
}

// chunked cuts a stream into consecutive chunkUS-long pieces, the unit
// a camera client posts to the server.
func chunked(s *evedge.Stream, chunkUS int64) []*evedge.Stream {
	var out []*evedge.Stream
	for t0 := int64(0); t0 < streamDurUS; t0 += chunkUS {
		out = append(out, s.Slice(t0, t0+chunkUS))
	}
	return out
}

func totalEvents(chunks [][]*evedge.Stream) int64 {
	var n int64
	for _, cs := range chunks {
		for _, c := range cs {
			n += int64(c.Len())
		}
	}
	return n
}
