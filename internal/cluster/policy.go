package cluster

import (
	"fmt"
	"hash/fnv"

	"evedge/internal/serve"
)

// ErrNoNodes reports that no alive node can take a session — a
// transient fleet condition (503 in serve.ErrorStatus), not a bad
// request.
var ErrNoNodes = serve.Unavailable("cluster: no alive nodes")

// PlacementPolicy selects how the router places sessions on nodes.
type PlacementPolicy string

// Placement policies. PolicyLeastLoaded picks the node whose
// capacity-weighted active-session cost (serve.NodeLoad.Utilization)
// is lowest, so a bigger platform absorbs proportionally more work.
// PolicyHash maps the fleet-wide session ID deterministically onto the
// alive node set — stable, stateless placement; on failover only the
// failed node's sessions re-hash over the survivors.
const (
	PolicyLeastLoaded PlacementPolicy = "least-loaded"
	PolicyHash        PlacementPolicy = "hash"
)

// ParsePlacementPolicy parses a policy name ("" = least-loaded).
func ParsePlacementPolicy(s string) (PlacementPolicy, error) {
	switch s {
	case "", string(PolicyLeastLoaded), "least_loaded", "ll":
		return PolicyLeastLoaded, nil
	case string(PolicyHash):
		return PolicyHash, nil
	}
	return "", fmt.Errorf("cluster: unknown placement policy %q (have %s, %s)",
		s, PolicyLeastLoaded, PolicyHash)
}

// place picks the node for a session under the configured policy,
// considering only alive, non-draining nodes and never the excluded
// one (the node being failed over or drained).
func (c *Cluster) place(extID string, exclude *node) (*node, error) {
	candidates := c.aliveNodes(exclude)
	if len(candidates) == 0 {
		return nil, fmt.Errorf("%w to place session %q", ErrNoNodes, extID)
	}
	if c.cfg.Policy == PolicyHash {
		h := fnv.New32a()
		_, _ = h.Write([]byte(extID))
		return candidates[int(h.Sum32())%len(candidates)], nil
	}
	// Least-loaded: lowest utilization, then fewest active sessions,
	// then construction order — deterministic under ties.
	best := candidates[0]
	bestLoad := best.server().Load()
	for _, n := range candidates[1:] {
		l := n.server().Load()
		if l.Utilization < bestLoad.Utilization ||
			(l.Utilization == bestLoad.Utilization && l.SessionsActive < bestLoad.SessionsActive) {
			best, bestLoad = n, l
		}
	}
	return best, nil
}
