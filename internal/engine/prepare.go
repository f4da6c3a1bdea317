package engine

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"adj/internal/costmodel"
	"adj/internal/hcube"
	"adj/internal/hypergraph"
	"adj/internal/optimizer"
	"adj/internal/plan"
	"adj/internal/relation"
)

// PreparedPlan is the cached planning artifact of a prepared query: the
// part of a run that samples the data and chooses a plan, split from
// execution so a session can pay it once and execute many times. Program
// is what executes — the lowered operator DAG the IR interpreter walks;
// the other plan fields keep the engine-family artifact it was lowered
// from (inspection, Explain).
type PreparedPlan struct {
	// Engine is the registry name the plan was prepared for; engines reject
	// a plan prepared for a different engine (plans are not interchangeable:
	// ADJ's co-optimized GHD plan means nothing to BinaryJoin).
	Engine string
	// Program is the lowered physical plan the IR interpreter executes.
	Program *plan.Program
	// Opt is the optimizer plan: co-optimized for ADJ, communication-first
	// for the HCubeJ family and the hybrid's cyclic core.
	Opt *optimizer.Plan
	// JoinOrder is BinaryJoin's greedy pairwise order (indexes into the
	// bound relation list).
	JoinOrder []int
	// Order is BigJoin's round order over the query attributes.
	Order []string
	// Seconds is the measured planning time — what a one-shot run would
	// have charged to its Optimization phase.
	Seconds float64
}

// Prepare computes the planning artifact for engineName over bound
// relations and lowers it to the physical plan.Program the IR interpreter
// executes: sampling-based cardinality estimation plus plan selection for
// the optimizing engines, the cheap deterministic orders for the others,
// selectivity-driven strategy routing for Hybrid. The result plugs into
// Config.Prepared, making the engine skip its optimization phase. cfg
// supplies the planning knobs (NumServers, Samples, Seed, Ctx for
// cancellation).
func Prepare(engineName string, q hypergraph.Query, rels []*relation.Relation, cfg Config) (*PreparedPlan, error) {
	cfg = cfg.withDefaults()
	t0 := time.Now()
	pp := &PreparedPlan{Engine: engineName}
	var err error
	switch engineName {
	case "ADJ":
		pp.Opt, err = adjPlan(q, rels, cfg, true)
		if err == nil {
			pp.Program = lowerADJ(q, rels, pp.Opt)
		}
	case "ADJ(comm-first)":
		pp.Opt, err = adjPlan(q, rels, cfg, false)
		if err == nil {
			pp.Program = lowerADJ(q, rels, pp.Opt)
			pp.Program.Engine = engineName
		}
	case "HCubeJ", "HCubeJ+Cache":
		pp.Opt, err = commFirstPlan(q, rels, cfg)
		if err == nil {
			pp.Program = lowerHCubeJ(engineName, rels, pp.Opt, engineName == "HCubeJ+Cache")
		}
	case "BigJoin":
		pp.Order = q.Attrs()
		pp.Program, err = lowerBigJoin(q, rels, pp.Order)
	case "SparkSQL":
		pp.JoinOrder = binaryJoinOrder(rels)
		pp.Program = lowerBinary(q, rels, pp.JoinOrder)
	case "Hybrid":
		pp.Program, pp.Opt, err = lowerHybrid(q, rels, cfg)
	default:
		return nil, fmt.Errorf("engine: unknown engine %q (want one of %v)", engineName, AllEngineNames())
	}
	if err != nil {
		return nil, err
	}
	pp.Seconds = time.Since(t0).Seconds()
	return pp, nil
}

// preparedFor returns cfg's cached plan when it matches engineName, nil
// otherwise (a mismatched plan is ignored rather than misapplied).
func preparedFor(cfg Config, engineName string) *PreparedPlan {
	if cfg.Prepared != nil && cfg.Prepared.Engine == engineName {
		return cfg.Prepared
	}
	return nil
}

// adjPlan is ADJ's optimization phase (§III): calibrate cost constants,
// then co-optimize over the GHD-restricted plan space (or pick the
// communication-first plan). Shared
// by direct runs (charged to their optimize phase) and Prepare.
func adjPlan(q hypergraph.Query, rels []*relation.Relation, cfg Config, coOptimize bool) (*optimizer.Plan, error) {
	params := defaultParams(cfg)
	params.BetaTrie = betaTrie()
	opt, err := optimizer.New(q, rels, optimizer.Options{
		Params:  params,
		Samples: cfg.Samples,
		Seed:    cfg.Seed,
		Cancel:  cancelOf(cfg),
	})
	if err != nil {
		return nil, err
	}
	if err := ctxErr(cfg); err != nil {
		return nil, err
	}
	if coOptimize {
		return opt.CoOptimize()
	}
	return opt.CommunicationFirst()
}

// betaTrie is β for pre-computed tries, pre-measured on a calibration trie
// (§III-B: "pre-measure β_i"). It is a property of the machine, not of the
// query, so it is measured once per process rather than on every plan.
var betaTrie = sync.OnceValue(func() float64 { return costmodel.CalibrateBetaTrie(1 << 14) })

// commFirstPlan is the HCubeJ family's order selection over all n! orders
// by estimated intermediate size (Fig. 8's "All-Selected").
func commFirstPlan(q hypergraph.Query, rels []*relation.Relation, cfg Config) (*optimizer.Plan, error) {
	opt, err := optimizer.New(q, rels, optimizer.Options{
		Params:  defaultParams(cfg),
		Samples: cfg.Samples,
		Seed:    cfg.Seed,
		Cancel:  cancelOf(cfg),
	})
	if err != nil {
		return nil, err
	}
	if err := ctxErr(cfg); err != nil {
		return nil, err
	}
	return opt.CommunicationFirst()
}

// shuffleReuse builds the hcube.Reuse for one shuffle from the session's
// content signatures: base relations (query atoms) carry the signatures the
// session computed at Register time; engine-materialized relations (ADJ's
// pre-computed bags) get a signature derived deterministically from the
// plan identity and every input signature — same inputs, same plan, same
// content, so the derivation is sound. Relations can only be derived when
// every atom signature is known; otherwise reuse is disabled for the run.
func shuffleReuse(cfg Config, planID string, infos []hcube.RelInfo) *hcube.Reuse {
	if cfg.Reuse == nil || cfg.Reuse.Store == nil {
		return nil
	}
	sigs := make(map[string]uint64, len(infos))
	for _, ri := range infos {
		s, ok := relSig(cfg, planID, ri.Name)
		if !ok {
			return nil
		}
		sigs[ri.Name] = s
	}
	return &hcube.Reuse{Store: cfg.Reuse.Store, Sigs: sigs}
}

// relSig is the content signature one shuffle keys relation name by: the
// session's registered signature, or the provenance signature of an
// engine-materialized relation. ok is false when the session lists no
// signatures to derive from. cfg.Reuse must be non-nil.
func relSig(cfg Config, planID, name string) (uint64, bool) {
	if s, ok := cfg.Reuse.Sigs[name]; ok {
		return s, true
	}
	if len(cfg.Reuse.Sigs) == 0 {
		return 0, false
	}
	return derivedSig(planID, name, cfg.Reuse.Sigs), true
}

// derivedSig fingerprints an engine-materialized relation by provenance:
// the plan that materializes it, its name within that plan, and the
// signatures of every input relation, folded in sorted-name order so the
// hash is stable.
func derivedSig(planID, name string, inputs map[string]uint64) uint64 {
	h := relation.NewHash64()
	h.Bytes(planID)
	h.Bytes(name)
	names := make([]string, 0, len(inputs))
	for n := range inputs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h.Bytes(n)
		h.Word(inputs[n])
	}
	return h.Sum()
}
