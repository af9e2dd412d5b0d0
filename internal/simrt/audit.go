package simrt

// The run audit: one copy of each check a simulated run is held to, shared
// by the chaos gauntlet (internal/harness) and the model checker
// (internal/explore). The safety oracles are the paper's: Theorem 1 (every
// committed global checkpoint is orphan-free) and §3.6's clean abort (an
// instance that did not commit leaves no tentative, mutable or weight
// behind).
//
// A process that is down when the audit runs fail-stopped and was never
// recovered, so each oracle derives its exemption from that alone: a down
// participant's tentative at the MSS joins the lines it belongs to, and
// instances a down process initiated are not audited for leaks, because
// nobody is left to disseminate their commit or abort.

import (
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"sort"

	"mutablecp/internal/consistency"
	"mutablecp/internal/protocol"
)

// engineState is the engine surface the digest folds in. The []bool and
// []int forms are the stable cross-representation boundary: engines may
// store state however they like but must render it identically here.
type engineState interface {
	CSN() []int
	DependencyVector() []bool
	Sent() bool
	OldCSN() int
}

// Digest hashes the execution so far: every event of the cluster's trace
// (when Config.Trace is set) in order, each process's channel counters
// (padded to N, so a truncated vector digests like its dense form), engine
// state and retained permanent checkpoints, and the executed event count.
// Equal digests mean identical executions, which makes it the golden
// fingerprint, the replay determinism check and the model checker's
// visited-set key at once.
func (c *Cluster) Digest() uint64 {
	h := fnv.New64a()
	if tl := c.cfg.Trace; tl != nil {
		for _, ev := range tl.Events() {
			io.WriteString(h, ev.String()) //nolint:errcheck
			h.Write([]byte{'\n'})          //nolint:errcheck
		}
	}
	for _, p := range c.procs {
		st := p.CaptureState()
		fmt.Fprintf(h, "P%d sent=%v recv=%v\n", p.id,
			protocol.PadCounters(st.SentTo, c.cfg.N),
			protocol.PadCounters(st.RecvFrom, c.cfg.N))
		if eng, ok := p.engine.(engineState); ok {
			fmt.Fprintf(h, "csn=%v r=%v sent=%v old=%d\n",
				eng.CSN(), eng.DependencyVector(), eng.Sent(), eng.OldCSN())
		}
		for _, rec := range p.Stable().History() {
			fmt.Fprintf(h, "perm csn=%d trig=%+v\n", rec.State.CSN, rec.Trigger)
		}
	}
	fmt.Fprintf(h, "events=%d", c.Executed())
	return h.Sum64()
}

// AuditLines checks Theorem 1 over the run's whole permanent history. It
// walks the terminated instances in termination order, advancing a global
// checkpoint line from the seeded initial checkpoints, and orphan-checks
// every line an instance committed. A down process's tentative for the
// committing trigger joins the line: it reached the MSS before the host
// died, and the MSS commits on its behalf. An instance that left no
// permanent anywhere is a clean abort and leaves the line standing. The
// stores must retain every permanent: the default in-memory store does,
// and a durable backend does with Keep 0.
func (c *Cluster) AuditLines() (committed, aborted int, err error) {
	line := make(map[protocol.ProcessID]protocol.State, len(c.procs))
	perm := make([]map[protocol.Trigger]protocol.State, len(c.procs))
	for _, p := range c.procs {
		hist := p.Stable().History()
		line[p.id] = hist[0].State
		perm[p.id] = make(map[protocol.Trigger]protocol.State, len(hist)-1)
		for _, rec := range hist[1:] {
			perm[p.id][rec.Trigger] = rec.State
		}
	}
	recs := slices.Clone(c.Metrics().Completed())
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].End < recs[j].End })
	for _, rec := range recs {
		updated := 0
		for _, p := range c.procs {
			if st, ok := perm[p.id][rec.Trigger]; ok {
				line[p.id] = st
				updated++
			}
		}
		if updated == 0 {
			aborted++
			continue
		}
		committed++
		for _, p := range c.procs {
			if !p.down {
				continue
			}
			if t, ok := p.Stable().Tentative(rec.Trigger); ok {
				line[p.id] = t.State
			}
		}
		if err := consistency.Check(line); err != nil {
			return committed, aborted, fmt.Errorf("committed line for trigger %+v (ended %v): %w",
				rec.Trigger, rec.End, err)
		}
	}
	return committed, aborted, nil
}

// AuditLeaks checks §3.6's clean abort on a drained run: no live process
// holds a tentative or mutable checkpoint for an instance whose initiator
// is live, and no live initiator still holds termination weight.
func (c *Cluster) AuditLeaks() error {
	for _, p := range c.procs {
		if p.down {
			continue
		}
		for _, trig := range p.Stable().TentativeTriggers() {
			if !c.procs[trig.Pid].down {
				return fmt.Errorf("P%d leaked a tentative checkpoint for live-initiator trigger %+v", p.id, trig)
			}
		}
		for _, trig := range p.Mutable().Triggers() {
			if !c.procs[trig.Pid].down {
				return fmt.Errorf("P%d leaked a mutable checkpoint for live-initiator trigger %+v", p.id, trig)
			}
		}
		if eng, ok := p.engine.(protocol.Initiator); ok && eng.Initiating() {
			return fmt.Errorf("P%d still holds termination weight after the drain", p.id)
		}
	}
	return nil
}

// VerifyStoreRestart restarts the stable stores (RestartStores) and checks
// that every reopened store holds exactly what it held before: each
// retained permanent and each pending tentative, with its CSN, trigger and
// channel counters. Against a durable backend it proves the disk
// reproduces the state the run ended with.
func (c *Cluster) VerifyStoreRestart() error {
	before := c.storeImages()
	if err := c.RestartStores(); err != nil {
		return err
	}
	for p, after := range c.storeImages() {
		if !slices.Equal(after, before[p]) {
			return fmt.Errorf("simrt: P%d store reopened as %q, had %q", p, after, before[p])
		}
	}
	return nil
}

// storeImages renders every process's stable store, one line per retained
// permanent then per pending tentative.
func (c *Cluster) storeImages() [][]string {
	out := make([][]string, len(c.procs))
	for _, p := range c.procs {
		st := p.Stable()
		render := func(kind string, s protocol.State, trig protocol.Trigger) {
			out[p.id] = append(out[p.id], fmt.Sprintf("%s csn=%d trig=%+v sent=%v recv=%v", kind, s.CSN, trig,
				protocol.PadCounters(s.SentTo, c.cfg.N), protocol.PadCounters(s.RecvFrom, c.cfg.N)))
		}
		for _, rec := range st.History() {
			render("perm", rec.State, rec.Trigger)
		}
		for _, trig := range st.TentativeTriggers() {
			rec, _ := st.Tentative(trig)
			render("tent", rec.State, trig)
		}
	}
	return out
}
