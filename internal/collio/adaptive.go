package collio

import (
	"mcio/internal/faults"
	"mcio/internal/health"
	"mcio/internal/pfs"
	"mcio/internal/sim"
)

// Adaptive is the health-driven response policy CostAdaptive layers on
// the faulted cost loop: a suspicion detector observing per-node and
// per-target service signals, circuit breakers taking chronically
// degraded storage targets out of normal service, hedged re-requests
// for straggling shuffle messages, and proactive aggregator
// re-placement off suspected hosts. Fault *pricing* is identical to
// CostWithFaults — only the response differs — so an adaptive run and
// a static run of the same schedule are directly comparable.
type Adaptive struct {
	// Detector accrues per-entity suspicion; nil disables observation,
	// proactive failover and breaker feeding.
	Detector *health.Detector
	// Breakers holds the per-OST circuit breakers layered under the
	// retry ladder; nil disables fast-fail.
	Breakers *pfs.BreakerSet
	// Proactive enables health-driven aggregator re-placement: a
	// suspected node with active work gets a synthetic Straggler host
	// event (HostFault.Proactive=true) so the handler can move its
	// domains before a hard fault fires.
	Proactive bool

	// HedgeQuantile is the delay quantile after which a straggling
	// shuffle message is hedged with a duplicate re-request (default
	// 0.95). HedgeMinSamples is how many delay observations the window
	// needs before hedging arms (default 32). HedgeOverheadSeconds is
	// the extra latency a hedge pays over the quantile deadline; when
	// zero it defaults to a quarter of the injector's drop timeout.
	HedgeQuantile        float64
	HedgeMinSamples      int
	HedgeOverheadSeconds float64

	window  *health.Window
	handled map[int]bool // nodes already proactively failed over
}

// NewAdaptive returns an Adaptive with a default-configured detector,
// breaker set, proactive failover enabled, and default hedging.
func NewAdaptive() *Adaptive {
	return &Adaptive{
		Detector:  health.NewDetector(health.Config{}),
		Breakers:  pfs.NewBreakerSet(health.BreakerConfig{}),
		Proactive: true,
	}
}

// init resolves defaults against the injector spec at run start.
func (ad *Adaptive) init(spec faults.Spec) {
	if ad.HedgeQuantile <= 0 || ad.HedgeQuantile >= 1 {
		ad.HedgeQuantile = 0.95
	}
	if ad.HedgeMinSamples <= 0 {
		ad.HedgeMinSamples = 32
	}
	if ad.HedgeOverheadSeconds <= 0 {
		ad.HedgeOverheadSeconds = spec.DropTimeoutSeconds / 4
	}
	if ad.window == nil {
		ad.window = health.NewWindow(256)
	}
	if ad.handled == nil {
		ad.handled = map[int]bool{}
	}
}

// hedgeDeadline returns the hedged-delivery latency (quantile deadline
// plus re-request overhead) and whether enough delay samples exist for
// hedging to be armed.
func (ad *Adaptive) hedgeDeadline() (float64, bool) {
	if ad.window == nil || ad.window.Len() < ad.HedgeMinSamples {
		return 0, false
	}
	return ad.window.Quantile(ad.HedgeQuantile) + ad.HedgeOverheadSeconds, true
}

// MemDecayHandler is implemented by FaultHandlers that own memory
// accounting (core.Failover does, through its memmodel.Tracker): when a
// MemLeak has decayed a node's budget to (1-leaked) of its leak-free
// value, OnMemDecay applies the decay and returns the node's new paged
// severity in [0,1]. Handlers without it get an inline approximation
// from the live domains' buffer reservations against ctx.Avail.
type MemDecayHandler interface {
	OnMemDecay(node int, leaked float64) float64
}

// CostAdaptive prices plan like CostWithFaults but with the adaptive
// response policy ad active: suspicion-driven proactive failover,
// per-OST circuit breakers under the retry ladder, and hedged
// re-requests for straggling shuffle messages. A nil ad gets
// NewAdaptive defaults. Deterministic like every cost path: same plan,
// schedule, handler and policy — same result.
func CostAdaptive(ctx *Context, plan *Plan, reqs []RankRequest, op Op, opt sim.Options,
	inj *faults.Injector, handler FaultHandler, ad *Adaptive) (*FaultResult, error) {
	if ad == nil {
		ad = NewAdaptive()
	}
	return costSet(ctx, plan, NewRequestSet(reqs), op, opt, faultEnv{inj: inj, handler: handler, ad: ad, allHot: true})
}
