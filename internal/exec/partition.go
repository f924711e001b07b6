package exec

import (
	"fmt"

	"repro/internal/plan"
	"repro/internal/tuple"
)

// MetricShardQueueBlocked is the cumulative wall time a partitioned engine's
// caller spent waiting at the join of a parallel replay, after its own share
// of the partitions was done, for the partitions still replaying on other
// workers. Registered by partitioned engines only; recorded only when
// Config.Metrics is set.
const MetricShardQueueBlocked = "upa_shard_queue_blocked_nanos_total"

// Key partitions. Open splits a query whose plan admits a routing key
// (plan.PartitionKey) into n copies inside one engine. The copies share the
// engine's windows, so arrivals are validated, counted and stamped once, on
// the caller, and recorded on the run tape as for any engine. Each copy has
// its own operators and view, and its source edges carry the routing filter:
// at every flush the tape's rows are dealt to the partitions by the hash of
// their stream's routing columns (runTape.deal), and a copy replays only its
// own rows and every maintenance pass. The copies are disconnected,
// so they are the engine's components, and a PushBatch replays them on
// min(GOMAXPROCS, n) workers like the independent queries of a registry,
// once the tape holds tapeFlushRows rows (Engine.ingest).
// Tables are shared: a table update mutates its table once, on the caller,
// and routes through every copy's plan. The answer is the bag union of the
// copies' views: every stateful operator relates only tuples that agree on
// the routing key, so each copy computes the sequential answer restricted to
// its partition.

// Open builds the engine for one query and is the one place that decides
// between sequential and key-partitioned execution. With shards < 2, or
// when plan.PartitionKey rejects the plan, it returns a plain engine holding
// spec as its only registered query, and fallbackReason carries the
// rejection. Otherwise the engine holds shards partitions of the query (see
// above); spec.Name is then not used, since per-query series belong to
// registries, and a partitioned engine takes no further registration.
// cfg.OnEmit is ignored in favour of spec.OnEmit.
func Open(spec QuerySpec, cfg Config, shards int) (e *Engine, fallbackReason string, err error) {
	e = NewMulti(cfg)
	if shards > 1 {
		part, perr := plan.PartitionKey(spec.Phys)
		if perr == nil {
			if err := e.partition(spec, shards, part.ByStream); err != nil {
				return nil, "", err
			}
			return e, "", nil
		}
		fallbackReason = perr.Error()
	}
	if _, err := e.RegisterQuery(spec); err != nil {
		return nil, "", err
	}
	return e, fallbackReason, nil
}

// partition installs n copies of spec's plan on the empty engine e, routed by
// route (stream id → routing columns). Copy 0 runs spec.Phys itself; the
// others rebuild the physical plan from its annotated logical tree, which
// gives them their own operators over the same tables.
func (e *Engine) partition(spec QuerySpec, n int, route map[int][]int) error {
	e.parts = n
	for p := 0; p < n; p++ {
		phys := spec.Phys
		if p > 0 {
			var err error
			if phys, err = plan.Build(spec.Phys.Logical, spec.Phys.Strategy, spec.Phys.Opts); err != nil {
				return fmt.Errorf("exec: rebuilding plan for shard %d: %w", p, err)
			}
		}
		if _, err := e.install(QuerySpec{Phys: phys, OnEmit: spec.OnEmit}, p); err != nil {
			return err
		}
		// Each partition numbers its operators from 0 under its own shard
		// label, as a single-query engine does.
		e.nextOpID = 0
	}
	for _, s := range e.sources {
		s.route = route[s.stream]
	}
	e.tape.parts = n
	e.joinWait = e.reg.Counter(MetricShardQueueBlocked,
		"caller wall time waiting at the partition join of a parallel replay", e.cfg.MetricLabels)
	return nil
}

// partOf returns the partition a row out of src belongs to.
func (e *Engine) partOf(src *liveSource, t tuple.Tuple) int {
	return int(t.KeyHash64(src.route) % uint64(e.parts))
}

// mergeProfiles merges the partitions' operator profiles by plan position:
// counters, times and state sum, and the observed pattern class is the
// strongest any partition exhibited.
func mergeProfiles(parts [][]OpProfile) []OpProfile {
	out := parts[0]
	for _, profs := range parts[1:] {
		for i, p := range profs {
			o := &out[i]
			o.StateTuples += p.StateTuples
			o.Touched += p.Touched
			o.InPos += p.InPos
			o.InNeg += p.InNeg
			o.Emitted += p.Emitted
			o.Retracted += p.Retracted
			o.Expired += p.Expired
			o.ProcNanos += p.ProcNanos
			o.Observed = max(o.Observed, p.Observed)
			o.ViolExpiration += p.ViolExpiration
			o.ViolOutOfOrder += p.ViolOutOfOrder
			o.ViolPremature += p.ViolPremature
		}
	}
	return out
}
