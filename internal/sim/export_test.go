package sim

// Waiters returns the number of processes and handlers currently waiting.
func (s *Signal) Waiters() int {
	n := 0
	for _, w := range s.waiters[s.head:] {
		if w.live() {
			n++
		}
	}
	return n
}
