// Package surface is the exported-surface guard's fixture: TestOnly is
// called only from surface_test.go and must be reported; Used has a non-test
// caller, and Impl.Hook is called through the Hooker interface.
package surface

// Hooker is called through, so every implementation's Hook counts as called.
type Hooker interface{ Hook() }

// Impl implements Hooker; nothing calls Impl.Hook directly.
type Impl struct{}

func (Impl) Hook() {}

func Used() {}

func TestOnly() {}

func run(h Hooker) {
	Used()
	h.Hook()
}

var _ = run
