//go:build go1.23

package sim

import "iter"

// startCoroutine gives p a fresh coroutine running loop, which starts at
// the first p.next: a proc stopped before its first dispatch never runs.
func (p *Proc) startCoroutine() {
	p.next, p.stop = iter.Pull(p.loop)
}
