package workload_test

import (
	"fmt"
	"time"

	"github.com/qoslab/amf/internal/workload"
)

// A merged invocation trace for ten users with heterogeneous rates and a
// flash crowd between minutes 20 and 30 — the kind of arrival process the
// adaptation simulator and the stream-ingest example replay.
func ExampleTrace() {
	events, err := workload.Trace(workload.TraceOptions{
		Users:       10,
		Horizon:     time.Hour,
		MeanRate:    60, // ~60 invocations per user per hour
		RateSigma:   0.8,
		FlashStart:  20 * time.Minute,
		FlashEnd:    30 * time.Minute,
		FlashFactor: 5,
		Seed:        1,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	var quiet, surge int
	for _, e := range events {
		switch {
		case e.Time < 10*time.Minute:
			quiet++
		case e.Time >= 20*time.Minute && e.Time < 30*time.Minute:
			surge++
		}
	}
	fmt.Printf("events are time-ordered: %v\n", sorted(events))
	fmt.Printf("flash window busier than a quiet window: %v\n", surge > 2*quiet)
	// Output:
	// events are time-ordered: true
	// flash window busier than a quiet window: true
}

func sorted(events []workload.Event) bool {
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			return false
		}
	}
	return true
}
