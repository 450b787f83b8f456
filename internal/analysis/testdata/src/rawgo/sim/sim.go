// Package sim stands for the engine package itself: rawgo checks it
// like any consumer, so a goroutine inside the engine is reported.
package sim

func runWorkers(n int) {
	for i := 0; i < n; i++ {
		go func() {}() // want `rawgo: bare go statement in a sim package or consumer`
	}
}
