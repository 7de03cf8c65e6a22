package recorder

// ticks reads the time-stamp counter (RDTSC). It is not serialising: the
// read may move a few instructions either way, which is far below the gap
// between two recorded events.
func ticks() uint64

// cpuid executes CPUID for leaf (sub-leaf 0) and returns EAX and EDX.
func cpuid(leaf uint32) (eax, edx uint32)

// invariantTSC reports whether the time-stamp counter ticks at a constant
// rate in every P-, C- and T-state (CPUID leaf 0x80000007, EDX bit 8),
// which is what lets a tick count stand for elapsed time across cores.
func invariantTSC() bool {
	if maxExt, _ := cpuid(0x80000000); maxExt < 0x80000007 {
		return false
	}
	_, edx := cpuid(0x80000007)
	return edx&(1<<8) != 0
}
