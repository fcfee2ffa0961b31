package harness

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"evedge/internal/cluster"
	"evedge/internal/events"
	"evedge/internal/nn"
	"evedge/internal/serve"
)

// The schedule explorer drives a journaled three-node fleet through a
// seeded op script, one router call per op, so ingests, ack and
// since=<seq> reads, pumps, closes and node chaos interleave at a finer
// grain than the scenario runner's ticks. After every op it checks the
// replication protocol's invariants:
//
//   - seqs: a since=<seq> reader sees strictly increasing seqs, and no
//     result ever lands at or below its cursor unless it is one the
//     reader already has, across every failover that replays a replica;
//   - replica: every entry any live node holds for a session is an
//     un-acked chunk of the session's journal or a result its catch-up
//     ring retains, and a closed session's replicas are gone;
//   - at-least-once: no more frames leave the fleet's pipelines, done
//     or dropped, than the client's chunks and the replays framed (and
//     one close per session, one frame per failover), and a reader gets
//     no more frames than its session framed and recovered;
//   - conservation: the fleet's frames_in equals done + dropped + every
//     residual, dead incarnations included, after every op.
//
// A script is three bytes per op, so FuzzScript's corpus files are
// scripts: a failing seed shrinks (shrinkScript) to the shortest script
// that still fails, and that script is committed under
// testdata/fuzz/FuzzScript.

// Explorer ops. The two bytes after the kind pick the session or node
// it acts on and, for an ingest, its length.
const (
	xCreate byte = iota
	xIngest
	xBurst // one chunk longer than the session's QueueCap in frames
	xAck   // a zero-event chunk: reads the ack watermark
	xRead  // GET .../stream?since=<cursor>
	xPump
	xClose
	xKill
	xDrain
	xRevive
	xUndrain
	xProbe // failover sweep plus one load-rebalance decision
	xCycle // open and close a batch of sessions: past maxClosed
	xFlood // ingest and pump until one session passes journalResultCap results; once per script
	xKinds
)

var xNames = [xKinds]string{"create", "ingest", "burst", "ack", "read", "pump", "close",
	"kill", "drain", "revive", "undrain", "probe", "cycle", "flood"}

// xop is one explorer step.
type xop struct{ kind, a, b byte }

func (o xop) String() string { return fmt.Sprintf("%s(%d,%d)", xNames[o.kind%xKinds], o.a, o.b) }

// decodeScript reads one op per three bytes; a trailing partial op is
// ignored.
func decodeScript(data []byte) []xop {
	ops := make([]xop, 0, len(data)/3)
	for i := 0; i+3 <= len(data); i += 3 {
		ops = append(ops, xop{data[i] % xKinds, data[i+1], data[i+2]})
	}
	return ops
}

func encodeScript(ops []xop) []byte {
	out := make([]byte, 0, 3*len(ops))
	for _, o := range ops {
		out = append(out, o.kind, o.a, o.b)
	}
	return out
}

// xWeights is each op's share of a generated script.
var xWeights = [xKinds]int{
	xCreate: 6, xIngest: 30, xBurst: 4, xAck: 6, xRead: 12, xPump: 14, xClose: 4,
	xKill: 3, xDrain: 3, xRevive: 3, xUndrain: 3, xProbe: 6, xCycle: 2, xFlood: 1,
}

// genScript draws a script of 40 to 160 ops from seed.
func genScript(seed int64) []xop {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, w := range xWeights {
		total += w
	}
	ops := make([]xop, 40+rng.Intn(121))
	for i := range ops {
		r := rng.Intn(total)
		k := byte(0)
		for r >= xWeights[k] {
			r -= xWeights[k]
			k++
		}
		ops[i] = xop{k, byte(rng.Intn(256)), byte(rng.Intn(256))}
	}
	return ops
}

// xMix is the palette xCreate cycles through: small queues, both drop
// policies, with and without DSFA.
var xMix = []serve.SessionConfig{
	{Network: nn.DOTIE, Level: 1, QueueCap: 4},
	{Network: nn.DOTIE, Level: 2, QueueCap: 6},
	{Network: nn.DOTIE, Level: 1, QueueCap: 4, DropPolicy: "drop-newest"},
}

const (
	xMaxOpen  = 6
	xCycleN   = 17   // sessions per xCycle; four pass serve's maxClosed of 64
	xFloodN   = 1100 // pumped chunks per xFlood: past journalResultCap (1024) results
	xWidth    = 173
	xHeight   = 130
	xChunkUS  = 10_000
	xEventsPS = 8_000 // events per stream-second of an ingest
)

// xCloseFrames is the most frames a session's close frames: xMix's
// networks frame by time, and a close frames the window its last event
// ends, when that event lies on the window's last microsecond.
var xCloseFrames = func() uint64 {
	in := nn.MustByName(nn.DOTIE).Input
	return uint64((in.NumBins + in.GroupK - 1) / in.GroupK)
}()

// xsess is one explored session and its since=<seq> reader.
type xsess struct {
	id   string
	rng  *rand.Rand
	tsUS int64 // the next chunk's first timestamp
	open bool
	node string // the owner when last observed
	// failovers and migrations as last observed.
	failovers, migrations int
	logged                bool // live nodes held replica entries after the last op
	cursor                uint64
	seen                  map[uint64]serve.ResultEvent
	// sent counts the frames the session's client chunks framed, got
	// the frames its reader received.
	sent, got uint64
	// lastSeq is the seq of the session's last acked chunk; with strict
	// set, every chunk's seq must exceed it.
	lastSeq uint64
	strict  bool
}

// explorer is one script's run.
type explorer struct {
	c       *cluster.Cluster
	h       http.Handler
	nowUS   atomic.Int64
	nodes   []string
	dead    map[string]bool
	drain   map[string]bool
	sess    []*xsess
	made    int
	flooded bool
}

func newExplorer() (*explorer, error) {
	e := &explorer{dead: map[string]bool{}, drain: map[string]bool{}}
	specs, err := cluster.ParseNodeSpecs("xavier:2,orin:1")
	if err != nil {
		return nil, err
	}
	node := serve.DefaultConfig()
	node.ManualDrain = true
	node.Journal = true
	e.c, err = cluster.New(cluster.Config{
		Nodes:             specs,
		ProbeInterval:     -1,
		RebalanceGap:      2e-6, // a third of one DOTIE session's utilization on a Xavier
		RebalanceCooldown: 5 * time.Millisecond,
		Elapsed:           func() time.Duration { return time.Duration(e.nowUS.Load()) * time.Microsecond },
		Node:              node,
	})
	if err != nil {
		return nil, err
	}
	e.h = e.c.Handler()
	e.nodes = e.c.NodeNames()
	return e, nil
}

// runScript executes ops and returns the first invariant violation, as
// "op i kind(a,b): what", or "" when every op kept every invariant.
func runScript(ops []xop) string {
	msg, _ := exploreScript(ops)
	return msg
}

// xreach counts what a run reached, so a seed range shows it exercised
// the paths the invariants guard.
type xreach struct {
	failovers, replays, migrations, dropped, sessions uint64
	maxSeq                                            uint64
}

func (r *xreach) add(o xreach) {
	r.failovers += o.failovers
	r.replays += o.replays
	r.migrations += o.migrations
	r.dropped += o.dropped
	r.sessions += o.sessions
	r.maxSeq = max(r.maxSeq, o.maxSeq)
}

// exploreScript is runScript that also reports what the run reached.
func exploreScript(ops []xop) (string, xreach) {
	e, err := newExplorer()
	if err != nil {
		return err.Error(), xreach{}
	}
	defer e.c.Close()
	msg := e.run(ops)
	h := e.c.Health()
	r := xreach{failovers: h.FailoverSessions, replays: h.FailoverRecoveredFrames, migrations: h.RebalanceMigrations,
		dropped: e.c.FleetTotals().FramesDropped, sessions: uint64(h.SessionsTotal)}
	for _, s := range e.sess {
		r.maxSeq = max(r.maxSeq, s.cursor)
	}
	return msg, r
}

func (e *explorer) run(ops []xop) string {
	for i, o := range ops {
		e.nowUS.Add(1000)
		err := e.apply(o)
		if err == nil {
			err = e.check()
		}
		if err != nil {
			return fmt.Sprintf("op %d %v: %v", i, o, err)
		}
	}
	return ""
}

func (e *explorer) openSessions() []*xsess {
	var out []*xsess
	for _, s := range e.sess {
		if s.open {
			out = append(out, s)
		}
	}
	return out
}

// pickOpen returns the open session a selects, nil when none is open.
func (e *explorer) pickOpen(a byte) *xsess {
	open := e.openSessions()
	if len(open) == 0 {
		return nil
	}
	return open[int(a)%len(open)]
}

func (e *explorer) up() []string {
	var out []string
	for _, n := range e.nodes {
		if !e.dead[n] && !e.drain[n] {
			out = append(out, n)
		}
	}
	return out
}

func (e *explorer) apply(o xop) error {
	node := e.nodes[int(o.a)%len(e.nodes)]
	switch o.kind {
	case xCreate:
		if len(e.openSessions()) < xMaxOpen && len(e.up()) > 0 {
			return e.create(xMix[e.made%len(xMix)])
		}
	case xIngest, xBurst:
		if s := e.pickOpen(o.a); s != nil {
			dur := int64(o.b%4+1) * xChunkUS / 2
			if o.kind == xBurst {
				dur = 40 * xChunkUS // 80 DOTIE windows: past any QueueCap of xMix
			}
			return e.ingest(s, dur)
		}
	case xAck:
		if s := e.pickOpen(o.a); s != nil {
			return e.ingest(s, 0)
		}
	case xRead:
		if s := e.pickOpen(o.a); s != nil {
			return e.read(s)
		}
	case xPump:
		e.c.Pump()
	case xClose:
		if s := e.pickOpen(o.a); s != nil {
			return e.close(s)
		}
	case xKill:
		if !e.dead[node] && len(e.up()) > 1 || e.drain[node] && len(e.up()) > 0 {
			e.dead[node] = true
			delete(e.drain, node)
			return e.c.KillNode(node)
		}
	case xDrain:
		if !e.dead[node] && !e.drain[node] && len(e.up()) > 1 {
			e.drain[node] = true
			return e.c.DrainNode(node)
		}
	case xRevive:
		if e.dead[node] {
			delete(e.dead, node)
			return e.c.ReviveNode(node)
		}
	case xUndrain:
		if e.drain[node] {
			delete(e.drain, node)
			return e.c.UndrainNode(node)
		}
	case xProbe:
		e.c.ProbeNow()
	case xCycle:
		if len(e.up()) == 0 {
			return nil
		}
		for i := 0; i < xCycleN; i++ {
			snap, err := e.c.CreateSession(xMix[0])
			if err != nil {
				return err
			}
			if _, err := e.c.CloseSession(snap.ID); err != nil {
				return err
			}
		}
	case xFlood:
		s := e.pickOpen(o.a)
		if s == nil || e.flooded {
			return nil
		}
		e.flooded = true
		for i := 0; i < xFloodN; i++ {
			if err := e.ingest(s, xChunkUS/2); err != nil {
				return err
			}
			e.c.Pump()
			if i%64 == 63 {
				if err := e.read(s); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (e *explorer) create(cfg serve.SessionConfig) error {
	snap, err := e.c.CreateSession(cfg)
	if err != nil {
		return err
	}
	e.sess = append(e.sess, &xsess{
		id:   snap.ID,
		rng:  rand.New(rand.NewSource(int64(e.made) + 1)),
		open: true,
		seen: map[uint64]serve.ResultEvent{},
	})
	e.made++
	return nil
}

// ingest sends the session's next durUS of events, none for durUS 0,
// and checks the ack watermark it returns.
func (e *explorer) ingest(s *xsess, durUS int64) error {
	chunk := events.NewStream(xWidth, xHeight)
	if n := int(durUS * xEventsPS / 1e6); n > 0 {
		ts := make([]int64, n)
		for i := range ts {
			ts[i] = s.tsUS + s.rng.Int63n(durUS)
		}
		sortInt64(ts)
		for _, t := range ts {
			chunk.Append(events.Event{X: uint16(s.rng.Intn(xWidth)), Y: uint16(s.rng.Intn(xHeight)), TS: t, Pol: events.On})
		}
	}
	s.tsUS += durUS
	res, err := e.c.Ingest(s.id, serve.StreamChunk(chunk))
	if err != nil {
		return fmt.Errorf("ingest %s: %w", s.id, err)
	}
	if res.Seq == 0 || res.AckSeq > res.Seq || s.strict && res.Seq <= s.lastSeq {
		return fmt.Errorf("seqs: chunk of %s got seq %d, ack %d, after seq %d", s.id, res.Seq, res.AckSeq, s.lastSeq)
	}
	s.lastSeq = res.Seq
	s.sent += uint64(res.Frames)
	return nil
}

func (e *explorer) close(s *xsess) error {
	if _, err := e.c.CloseSession(s.id); err != nil {
		return fmt.Errorf("close %s: %w", s.id, err)
	}
	s.open = false
	return e.read(s) // the final pass: every result the close flushed
}

// since reads session id's stream from after seq as one catch-up pass.
func (e *explorer) since(id string, seq uint64) ([]serve.ResultEvent, error) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // one pass: catch up, then return instead of tailing
	req := httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id+"/stream?since="+strconv.FormatUint(seq, 10), nil)
	rec := httptest.NewRecorder()
	e.h.ServeHTTP(rec, req.WithContext(ctx))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("stream %s since %d: HTTP %d %s", id, seq, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	var out []serve.ResultEvent
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok || data == "{}" {
			continue
		}
		var ev serve.ResultEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

// read is one since=<cursor> pass of s's reader. A read of a session
// whose owner died fails it over first; when that move started the
// journal over, the pass starts over with it.
func (e *explorer) read(s *xsess) error {
	evs, err := e.since(s.id, s.cursor)
	if err != nil {
		return err
	}
	if s.open {
		restarted, _, _, _, err := e.observe(s)
		if err != nil {
			return err
		}
		if restarted {
			if evs, err = e.since(s.id, 0); err != nil {
				return err
			}
		}
	}
	for _, ev := range evs {
		if ev.Seq <= s.cursor {
			return fmt.Errorf("seqs: %s delivered seq %d after %d", s.id, ev.Seq, s.cursor)
		}
		s.cursor = ev.Seq
		s.seen[ev.Seq] = ev
		s.got += uint64(ev.Frames)
	}
	return nil
}

// observe notes the moves s went through since it was last observed
// and reports whether its journal started over, in which case its
// reader starts over too, with what it observed. A move keeps the
// journal only when it replayed a replica: one kill-failover whose
// replica entries survived. A load migration or a drain starts the
// journal over, and so does a failover with nothing to replay.
func (e *explorer) observe(s *xsess) (restarted bool, snap serve.SessionSnapshot, st serve.JournalStats, log []serve.ReplicaEntry, err error) {
	if snap, err = e.c.Snapshot(s.id); err != nil {
		return
	}
	if st, log, err = e.c.Journal(s.id); err != nil {
		err = fmt.Errorf("journal %s: %w", s.id, err)
		return
	}
	kept := snap.Migrations == s.migrations &&
		(snap.Failovers == s.failovers || snap.Failovers == s.failovers+1 && e.dead[s.node] && s.logged)
	if !kept {
		s.cursor, s.seen = 0, map[uint64]serve.ResultEvent{}
	}
	s.node, s.failovers, s.migrations, s.logged = snap.Node, snap.Failovers, snap.Migrations, len(log) > 0
	return !kept, snap, st, log, nil
}

// check verifies every invariant against the fleet as it is now.
func (e *explorer) check() error {
	totals := e.c.FleetTotals()
	var residual uint64
	for _, st := range e.c.NodeStats() {
		residual += uint64(st.ResidualQueued + st.ResidualAgg + st.RetiredQueued + st.RetiredAgg)
	}
	if done := totals.RawFramesDone + totals.FramesDropped + totals.FramesDroppedDSFA + residual; totals.FramesIn != done {
		return fmt.Errorf("conservation: frames_in %d, done+dropped+residual %d", totals.FramesIn, done)
	}
	var sent uint64
	for _, s := range e.sess {
		sent += s.sent
	}
	// Frames leave the pipelines (done or dropped) at most once per
	// client chunk or replay that framed them, plus what each session's
	// close framed. A chunk a dead owner took after its failover took the
	// replica log goes to the new owner (counted recovered), and its
	// first copy, framed by the old converter, may hold one frame more:
	// one per failover.
	h := e.c.Health()
	if left := totals.FramesIn - residual; left > sent+h.FailoverRecoveredFrames+totals.Sessions*xCloseFrames+h.FailoverSessions {
		return fmt.Errorf("at-least-once: %d frames done or dropped, client chunks framed %d, replays %d, sessions %d, failovers %d",
			left, sent, h.FailoverRecoveredFrames, totals.Sessions, h.FailoverSessions)
	}
	for _, s := range e.sess {
		if err := e.checkSession(s); err != nil {
			return err
		}
	}
	return nil
}

func (e *explorer) checkSession(s *xsess) error {
	if !s.open {
		if _, log, _ := e.c.Journal(s.id); len(log) > 0 {
			return fmt.Errorf("replica: closed %s left %d entries", s.id, len(log))
		}
		return nil
	}
	// The ring first: reading it fails a session on a dead owner over.
	ring, err := e.since(s.id, 0)
	if err != nil {
		return err
	}
	_, snap, st, log, err := e.observe(s)
	if err != nil {
		return err
	}
	inRing := make(map[uint64]bool, len(ring))
	for _, ev := range ring {
		inRing[ev.Seq] = true
		if ev.Seq > s.cursor {
			continue
		}
		if seen, ok := s.seen[ev.Seq]; !ok || seen != ev {
			return fmt.Errorf("seqs: %s retains seq %d at or below its reader's cursor %d, and the reader got %+v, not %+v",
				s.id, ev.Seq, s.cursor, seen, ev)
		}
	}
	for i, r := range log {
		// The store trims a log to the ack each append carries, so the
		// entry appended last may be a chunk that ack already retired
		// (one that framed nothing); the next append trims it.
		if r.Body != nil && (r.Seq <= st.AckSeq && i < len(log)-1 || r.Seq > st.Seq) {
			return fmt.Errorf("replica: %s holds chunk %d outside its un-acked suffix (%d, %d]", s.id, r.Seq, st.AckSeq, st.Seq)
		}
		if r.Body == nil && !inRing[r.Seq] {
			return fmt.Errorf("replica: %s holds result %d its ring does not retain", s.id, r.Seq)
		}
	}
	// Each incarnation's close may frame one window.
	if limit := s.sent + snap.FailoverRecoveredFrames + uint64(s.failovers) + uint64(s.migrations+1)*xCloseFrames; s.got > limit {
		return fmt.Errorf("at-least-once: %s's reader got %d frames, the session framed %d and recovered %d",
			s.id, s.got, s.sent, snap.FailoverRecoveredFrames)
	}
	return nil
}

func sortInt64(a []int64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// shrinkScript returns a shortest-found script that still fails: it
// drops runs of ops, halving the run length down to one op, while the
// script keeps failing.
func shrinkScript(ops []xop) []xop {
	for n := len(ops) / 2; n >= 1; n /= 2 {
		for i := 0; i+n <= len(ops); {
			cand := append(append([]xop(nil), ops[:i]...), ops[i+n:]...)
			if runScript(cand) != "" {
				ops = cand
				continue
			}
			i += n
		}
	}
	return ops
}

// exploreRound numbers TestExplore's runs in one process, so
// -count=N explores N disjoint seed ranges.
var exploreRound atomic.Int64

// exploreSeeds is how many seeds one TestExplore run covers.
const exploreSeeds = 16

// TestExplore runs exploreSeeds generated scripts; with -count=N it
// goes on to the next seed range each time. A failing seed is shrunk,
// and the failure names the corpus file that replays it.
func TestExplore(t *testing.T) {
	round := exploreRound.Add(1) - 1
	var reach xreach
	for seed := round * exploreSeeds; seed < (round+1)*exploreSeeds; seed++ {
		ops := genScript(seed)
		msg, r := exploreScript(ops)
		reach.add(r)
		if msg != "" {
			small := shrinkScript(ops)
			t.Fatalf("seed %d: %s\nshrunk to %d ops %v: %s\ncommit it as testdata/fuzz/FuzzScript/seed-%d:\ngo test fuzz v1\n[]byte(%q)",
				seed, msg, len(small), small, runScript(small), seed, encodeScript(small))
		}
	}
	t.Logf("seeds [%d, %d): %d failovers, %d frames replayed, %d migrations, %d frames shed by full queues, %d sessions, highest seq read %d",
		round*exploreSeeds, (round+1)*exploreSeeds, reach.failovers, reach.replays, reach.migrations, reach.dropped, reach.sessions, reach.maxSeq)
}

// FuzzScript runs arbitrary op scripts; its corpus holds the shrunk
// scripts of failures the explorer found and scripts that reach each
// op's rarer branches.
func FuzzScript(f *testing.F) {
	f.Add(encodeScript(genScript(1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*200 {
			t.Skip("scripts are capped at 200 ops")
		}
		if msg := runScript(decodeScript(data)); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestExploreWallClock is the explorer on the wall clock: worker pools
// drain on their own goroutines while one goroutine per session sends
// chunks and acks, one per session reads its stream, and one kills,
// drains, revives, undrains and probes the fleet, so router calls race
// each other and the workers' result hooks. Run it under -race (make
// scenarios does, at GOMAXPROCS 2 and 8). Every ingest must succeed,
// every stream pass must deliver strictly increasing seqs past its
// cursor, and once every session is closed the fleet must conserve
// frames, frame no more than at-least-once allows, and hold no replica
// entry of any session.
func TestExploreWallClock(t *testing.T) {
	const (
		sessions = 4
		chunks   = 400
	)
	specs, err := cluster.ParseNodeSpecs("xavier:3")
	if err != nil {
		t.Fatal(err)
	}
	node := serve.DefaultConfig()
	node.Journal = true
	node.QueueCap = 6
	c, err := cluster.New(cluster.Config{
		Nodes:             specs,
		ProbeInterval:     -1,
		RebalanceGap:      2e-6,
		RebalanceCooldown: time.Millisecond,
		Node:              node,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e := &explorer{c: c, h: c.Handler(), nodes: c.NodeNames()}

	ids := make([]string, sessions)
	for i := range ids {
		snap, err := c.CreateSession(xMix[i%len(xMix)])
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = snap.ID
	}
	e.sess = make([]*xsess, sessions)
	var (
		senders sync.WaitGroup
		others  sync.WaitGroup
		stop    = make(chan struct{})
	)
	for i, id := range ids {
		senders.Add(1)
		go func() {
			defer senders.Done()
			s := &xsess{id: id, rng: rand.New(rand.NewSource(int64(i) + 1))}
			e.sess[i] = s
			for k := 0; k < chunks; k++ {
				dur := int64(s.rng.Intn(4)) * xChunkUS / 2 // a quarter are zero-event acks
				if err := e.ingest(s, dur); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(50 * time.Microsecond)
			}
		}()
		others.Add(1)
		go func() {
			defer others.Done()
			var cursor uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs, err := e.since(id, cursor)
				if err != nil {
					t.Error(err)
					return
				}
				for j, ev := range evs {
					if j > 0 && ev.Seq <= evs[j-1].Seq || ev.Seq <= cursor {
						t.Errorf("%s: stream pass since %d delivered seq %d after %d", id, cursor, ev.Seq, max(cursor, evs[max(j-1, 0)].Seq))
						return
					}
				}
				if n := len(evs); n > 0 {
					cursor = evs[n-1].Seq
				}
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	others.Add(1)
	go func() {
		defer others.Done()
		rng := rand.New(rand.NewSource(99))
		state := map[string]string{}
		up := func() int {
			n := 0
			for _, name := range e.nodes {
				if state[name] == "" {
					n++
				}
			}
			return n
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			name := e.nodes[rng.Intn(len(e.nodes))]
			var err error
			switch st := state[name]; {
			case st == "" && up() > 1 && rng.Intn(2) == 0:
				state[name] = "dead"
				err = c.KillNode(name)
			case st == "" && up() > 1:
				state[name] = "draining"
				err = c.DrainNode(name)
			case st == "dead":
				state[name] = ""
				err = c.ReviveNode(name)
			case st == "draining":
				state[name] = ""
				err = c.UndrainNode(name)
			}
			if err != nil {
				t.Error(err)
				return
			}
			c.ProbeNow()
			time.Sleep(time.Duration(200+rng.Intn(800)) * time.Microsecond)
		}
	}()
	senders.Wait()
	close(stop)
	others.Wait()
	c.ProbeNow()
	for _, id := range ids {
		if _, err := c.CloseSession(id); err != nil {
			t.Fatalf("close %s: %v", id, err)
		}
	}
	if err := e.check(); err != nil { // every xsess is closed: their replicas must be gone
		t.Error(err)
	}
	h := c.Health()
	t.Logf("%d failovers, %d frames replayed, %d shed, %d migrations", h.FailoverSessions, h.FailoverRecoveredFrames, h.FailoverShedFrames, h.RebalanceMigrations)
}

// TestExploreWallClockFailover kills, on the wall clock, the node that
// owns the most of six journaled sessions while one goroutine per
// session keeps ingesting, and fails them over at once. Each failover
// replays a replica on a buddy that stays alive, and no move is
// graceful, so no session's journal may start over: every sender's
// acked chunk seqs must rise across the kill. A chunk that reaches a
// resumed session before its replay does, or one acked into the dead
// incarnation after the failover took its replica log, breaks that.
// Run it under -race (make scenarios does).
func TestExploreWallClockFailover(t *testing.T) {
	const (
		sessions = 6
		chunks   = 300
	)
	specs, err := cluster.ParseNodeSpecs("xavier:3")
	if err != nil {
		t.Fatal(err)
	}
	node := serve.DefaultConfig()
	node.Journal = true
	node.QueueCap = 64
	c, err := cluster.New(cluster.Config{Nodes: specs, ProbeInterval: -1, Node: node})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e := &explorer{c: c, h: c.Handler(), nodes: c.NodeNames()}
	e.sess = make([]*xsess, sessions)
	owners := map[string]int{}
	for i := range e.sess {
		snap, err := c.CreateSession(xMix[i%2])
		if err != nil {
			t.Fatal(err)
		}
		owners[snap.Node]++
		e.sess[i] = &xsess{id: snap.ID, rng: rand.New(rand.NewSource(int64(i) + 1)), strict: true}
	}
	victim := e.nodes[0]
	for name, n := range owners {
		if n > owners[victim] {
			victim = name
		}
	}
	var senders, warm sync.WaitGroup
	warm.Add(sessions)
	for _, s := range e.sess {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for k := 0; k < chunks; k++ {
				if k == chunks/3 {
					warm.Done()
				}
				if err := e.ingest(s, int64(1+s.rng.Intn(4))*xChunkUS/2); err != nil {
					t.Error(err)
					if k < chunks/3 {
						warm.Done()
					}
					return
				}
			}
		}()
	}
	warm.Wait()
	if err := c.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	c.ProbeNow()
	senders.Wait()
	for _, s := range e.sess {
		if _, err := c.CloseSession(s.id); err != nil {
			t.Fatalf("close %s: %v", s.id, err)
		}
	}
	if err := e.check(); err != nil {
		t.Error(err)
	}
	h := c.Health()
	if h.FailoverSessions == 0 {
		t.Fatalf("killing %s failed no session over", victim)
	}
	t.Logf("killed %s: %d failovers, %d frames replayed, %d shed", victim, h.FailoverSessions, h.FailoverRecoveredFrames, h.FailoverShedFrames)
}
