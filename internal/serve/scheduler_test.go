package serve

import "testing"

// TestCollectDrainsQueuedWithoutWaiting pins collect's contract on a
// bare Server with no scheduler goroutine: it takes the first step plus
// whatever is already queued, up to MaxBatch, and returns without
// waiting for more (a wait would hang here); a closed quit channel
// reports shutdown.
func TestCollectDrainsQueuedWithoutWaiting(t *testing.T) {
	const maxBatch = 4
	for _, tc := range []struct {
		name            string
		queued          int
		quit            bool
		wantN, wantTail int
	}{
		{"empty queue", 0, false, 1, 0},
		{"fewer than MaxBatch queued", maxBatch - 2, false, maxBatch - 1, 0},
		{"more than MaxBatch queued", maxBatch + 3, false, maxBatch, 4},
		{"quit closed", 0, true, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &Server{
				cfg:   Config{MaxBatch: maxBatch},
				queue: make(chan *stepReq, 2*maxBatch),
				quit:  make(chan struct{}),
			}
			want := []*stepReq{{}}
			for range tc.queued {
				r := &stepReq{}
				want = append(want, r)
				s.queue <- r
			}
			if tc.quit {
				close(s.quit)
			}
			batch, quit := s.collect(want[0])
			if quit != tc.quit || len(batch) != tc.wantN || len(s.queue) != tc.wantTail {
				t.Fatalf("got %d steps (%d left queued), quit=%v; want %d (%d), quit=%v",
					len(batch), len(s.queue), quit, tc.wantN, tc.wantTail, tc.quit)
			}
			for i, r := range batch {
				if r != want[i] {
					t.Fatalf("batch[%d] is not the %d-th step in queue order", i, i)
				}
			}
		})
	}
}
