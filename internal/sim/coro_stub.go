//go:build !go1.23

package sim

// Procs run as iter.Pull coroutines: building needs Go 1.23 or newer.
var _ = simRequiresGo1_23ForIterPullCoroutines

func (p *Proc) startCoroutine() {}
