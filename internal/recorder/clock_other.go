//go:build !amd64

package recorder

// Off amd64 there is no counter the recorder reads: invariantTSC reports
// false, so calibration never runs and the default clock is monoClock.

func ticks() uint64 { return 0 }

func invariantTSC() bool { return false }
