package rawgo

import "sim"

func bad(e *sim.Engine) {
	go func() {}() // want `rawgo: bare go statement in a sim package or consumer`
	e.Go("proc", func(p *sim.Proc) {})
}

// pool fans whole simulations out to host workers; the decl-scope
// annotation covers the spawn.
//
//detlint:allow rawgo
func pool(n int) {
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func() { done <- struct{}{} }()
	}
}

func lineScoped() {
	go func() {}() //detlint:allow rawgo -- host-side helper
}
