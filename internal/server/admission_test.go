package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestAdmissionFreeSlotsNeverShed: maxConcurrent campaigns arriving together
// at an idle controller each find a free slot, so none may be shed — not
// even with a one-deep queue, which a free-slot arrival must not occupy.
func TestAdmissionFreeSlotsNeverShed(t *testing.T) {
	const slots, rounds = 4, 2000
	a := newAdmission(slots, 1, slots, time.Second, nil)
	for r := 0; r < rounds; r++ {
		releases := make([]func(), slots)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range releases {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				release, err := a.acquire(context.Background(), fmt.Sprintf("t%d", i))
				if err != nil {
					t.Errorf("round %d: arrival %d shed with a free slot: %s", r, i, err.Msg)
					return
				}
				releases[i] = release
			}()
		}
		close(start)
		wg.Wait()
		for _, release := range releases {
			if release != nil {
				release()
			}
		}
		if t.Failed() {
			return
		}
	}
}
