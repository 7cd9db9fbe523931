package memcloud

import "trinity/internal/msg"

// NewChaosCloud boots a memory cloud whose every machine sits behind one
// seeded fault-injecting chaos hub (msg.Chaos). Per-link policies — drops,
// delays, duplicates, one-way cuts, whole-machine isolation — are set on
// the returned hub, and a single seed reproduces the whole cluster's fault
// schedule. Tests use it to drive the §6.2 failure protocol (failure
// report, table refresh, retry) through real fault timings instead of
// hand-sequenced mocks.
//
//reach:test-seam fixture: chaos tests in memcloud, fetch, store and compute/* boot their cloud through it
func NewChaosCloud(cfg Config, seed int64) (*Cloud, *msg.Chaos) {
	ch := msg.NewChaos(seed)
	cfg.TransportWrap = ch.Wrap
	return New(cfg), ch
}
