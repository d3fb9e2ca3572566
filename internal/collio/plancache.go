package collio

import (
	"fmt"
	"hash/maphash"
	"sync"

	"mcio/internal/pfs"
)

// The plan cache memoizes validated plans. Sweeps re-derive identical
// partition trees constantly — every (config, memory point, strategy)
// cell is planned once per op pair, the tuner revisits parameter combos,
// and repeated experiment invocations (benchmarks, ablation overlap
// pairs) replan the very same inputs. Planning is deterministic, so the
// cache can only return what Plan would have computed.
//
// The key covers everything planning reads: the concrete strategy type
// and its exported fields (Name() alone is ambiguous — two-phase reports
// "two-phase" for every AggregatorsPerNode), the machine, filesystem and
// parameter configs, the topology's rank→node map, the availability
// vector, and a fingerprint of the request list.
var planCache = struct {
	sync.Mutex
	m map[string]*planEntry
}{m: map[string]*planEntry{}}

// planCacheLimit bounds the cache; on overflow the whole map is dropped
// (sweeps re-warm it in one pass, an LRU would be ceremony here).
const planCacheLimit = 512

type planEntry struct {
	once sync.Once
	plan *Plan
	err  error
}

// ResetPlanCache returns planning to its cold state — benchmarks use it
// to measure the cold path. It empties the cache and drops the scratch
// pfs.Union keeps between calls, so the plans that follow compute and
// allocate as the first plans of a fresh process do, however many ran
// before.
func ResetPlanCache() {
	planCache.Lock()
	planCache.m = map[string]*planEntry{}
	planCache.Unlock()
	pfs.ReleaseUnionScratch()
}

// planKey derives the cache key for one planning input. The
// fingerprint hashes the topology's rank→node map and the availability
// vector, then folds in the request set's own fingerprint, which the set
// computes once however many cells share it.
func planKey(s Strategy, ctx *Context, rs *RequestSet) string {
	var h maphash.Hash
	h.SetSeed(keySeed)
	w := &hashWriter{h: &h}
	for r := 0; r < ctx.Topo.Size(); r++ {
		w.add(int64(ctx.Topo.NodeOf(r)))
	}
	w.add(int64(len(ctx.Avail)))
	for _, a := range ctx.Avail {
		w.add(a)
	}
	w.add(int64(rs.fingerprint()))
	return fmt.Sprintf("%T|%+v|%+v|%+v|%+v|%x",
		s, s, ctx.Machine, ctx.FS, ctx.Params, w.sum())
}

// CachedPlan is CachedPlanSet over a set built from reqs.
func CachedPlan(s Strategy, ctx *Context, reqs []RankRequest) (*Plan, error) {
	return CachedPlanSet(s, ctx, NewRequestSet(reqs))
}

// CachedPlanSet returns s.PlanSet(ctx, rs) with the plan validated
// against rs, memoized. The returned *Plan is shared: callers must treat
// it as immutable (Cost only reads it; fault-injected paths, whose
// recovery mutates plans mid-operation, must keep planning directly).
// Safe for concurrent use — concurrent misses on one key plan once.
//
// When ctx.Obs is set the cache is bypassed entirely: planning publishes
// observer metrics and spans, which a cache hit would silently drop.
func CachedPlanSet(s Strategy, ctx *Context, rs *RequestSet) (*Plan, error) {
	if ctx.Obs != nil {
		plan, err := s.PlanSet(ctx, rs)
		if err != nil {
			return nil, err
		}
		if err := plan.ValidateSet(rs); err != nil {
			return nil, err
		}
		return plan, nil
	}
	key := planKey(s, ctx, rs)
	planCache.Lock()
	e := planCache.m[key]
	if e == nil {
		if len(planCache.m) >= planCacheLimit {
			planCache.m = make(map[string]*planEntry, planCacheLimit)
		}
		e = &planEntry{}
		planCache.m[key] = e
	}
	planCache.Unlock()
	e.once.Do(func() {
		e.plan, e.err = s.PlanSet(ctx, rs)
		if e.err == nil {
			e.err = e.plan.ValidateSet(rs)
		}
	})
	if e.err != nil {
		return nil, e.err
	}
	return e.plan, nil
}
