package collio

import (
	"mcio/internal/health"
	"mcio/internal/pfs"
)

// Adaptive is the health-driven response policy FaultEnv.Adaptive
// layers on the faulted cost loop: a suspicion detector observing per-node and
// per-target service signals, circuit breakers taking chronically
// degraded storage targets out of normal service, hedged re-requests
// for straggling shuffle messages, and proactive aggregator
// re-placement off suspected hosts: a suspected node with active work
// gets a synthetic Straggler host event (HostFault.Proactive=true) so
// the handler can move its domains before a hard fault fires. Fault
// *pricing* is identical to the static policy's — only the response
// differs — so an adaptive run and a static run of the same schedule
// are directly comparable.
type Adaptive struct {
	// Detector accrues per-entity suspicion; nil disables observation,
	// proactive failover and breaker feeding.
	Detector *health.Detector
	// Breakers holds the per-OST circuit breakers layered under the
	// retry ladder; nil disables fast-fail.
	Breakers *pfs.BreakerSet

	// HedgeMinSamples is how many delay observations the window needs
	// before hedging arms (zero means 32). A straggling shuffle message
	// is hedged with a duplicate re-request at the window's
	// hedgeQuantile delay plus a quarter of the injector's drop timeout.
	HedgeMinSamples int

	window  *health.Window
	handled map[int]bool // nodes already proactively failed over
}

// hedgeQuantile is the delay quantile after which a straggling shuffle
// message is hedged.
const hedgeQuantile = 0.95

// NewAdaptive returns an Adaptive with a detector and a breaker set.
func NewAdaptive() *Adaptive {
	return &Adaptive{Detector: health.NewDetector(), Breakers: pfs.NewBreakerSet()}
}

// init readies the run state at run start.
func (ad *Adaptive) init() {
	if ad.window == nil {
		ad.window = health.NewWindow(256)
	}
	if ad.handled == nil {
		ad.handled = map[int]bool{}
	}
}

// hedgeDeadline returns the hedged-delivery latency (quantile deadline
// plus a re-request overhead of a quarter of dropTimeout) and whether
// enough delay samples exist for hedging to be armed.
func (ad *Adaptive) hedgeDeadline(dropTimeout float64) (float64, bool) {
	need := ad.HedgeMinSamples
	if need <= 0 {
		need = 32
	}
	if ad.window == nil || ad.window.Len() < need {
		return 0, false
	}
	return ad.window.Quantile(hedgeQuantile) + dropTimeout/4, true
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
