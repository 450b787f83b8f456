package allow

import "time"

func unknownCheck() {
	//detlint:allow frobnicate // want `detlint: unknown check "frobnicate" in //detlint:allow \(valid: wallclock, rawrand, mapiter, rawgo\)`
	_ = time.Now() // want `wallclock: time\.Now`
}

func emptyAllow() {
	//detlint:allow // want `detlint: //detlint:allow names no checks`
	_ = time.Now() // want `wallclock: time\.Now`
}

func unknownDirective() {
	//detlint:deny wallclock // want `detlint: unknown directive "//detlint:deny"`
	_ = time.Now() // want `wallclock: time\.Now`
}

// timed measures one host-side run; decl scope covers both calls and a
// comma-separated list validates every name.
//
//detlint:allow wallclock, rawgo
func timed() time.Duration {
	t0 := time.Now()
	return time.Since(t0)
}

func lineScope() {
	t0 := time.Now() //detlint:allow wallclock -- trailing form covers its own line
	//detlint:allow wallclock
	_ = time.Since(t0)
	_ = time.Now() // want `wallclock: time\.Now`
}
