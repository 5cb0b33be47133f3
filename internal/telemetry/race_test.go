package telemetry

import (
	"sync"
	"testing"
)

// TestTelemetryRaceHammer drives every metric type from many writer
// goroutines while readers snapshot concurrently — the interleavings
// the fleet produces when shards, link sessions and gateway workers
// all record into one registry while /metrics is being scraped. Run
// under -race in CI.
func TestTelemetryRaceHammer(t *testing.T) {
	const (
		writers = 8
		rounds  = 400
	)
	reg := NewRegistry()
	set := NewSet(reg)
	mm := NewModeMetrics(reg, []string{"raw", "cs", "delineation"})

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				set.Node.Samples.Add(uint64(i))
				set.Link.Retransmissions.Inc()
				set.Link.RadioEnergyJ.Add(1e-6)
				set.Gateway.QueueDepth.Add(1)
				set.Gateway.QueueDepth.Add(-1)
				set.Stages.Record(Stage(i%NumStages), int64(i%1024))
				set.Fleet.Shard(w % 4).Inc()
				set.Fleet.DeliveryPermille.Observe(uint64(i % 1001))
				mm.RecordTransition(i, i%2, (i+1)%2, 0.5)
				// Get-or-create races against other writers and readers.
				reg.Counter("hammer.shared").Inc()
			}
		}(w)
	}
	// Concurrent readers: snapshots, JSON rendering, summary lines.
	var rg sync.WaitGroup
	stopRead := make(chan struct{})
	for r := 0; r < 3; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stopRead:
					return
				default:
				}
				_ = reg.Snapshot()
				_ = SummaryLine(reg, "hammer.shared", "gateway.queue.depth")
				_ = mm.Events()
			}
		}()
	}
	wg.Wait()
	close(stopRead)
	rg.Wait()

	if got := reg.Counter("hammer.shared").Value(); got != writers*rounds {
		t.Errorf("shared counter %d, want %d", got, writers*rounds)
	}
	if got := set.Link.Retransmissions.Value(); got != writers*rounds {
		t.Errorf("retransmissions %d, want %d", got, writers*rounds)
	}
	if got := set.Gateway.QueueDepth.Value(); got != 0 {
		t.Errorf("queue depth %d, want 0 after balanced adds", got)
	}
	if hi := set.Gateway.QueueDepth.High(); hi < 1 {
		t.Errorf("queue high watermark %d, want >= 1", hi)
	}
	total := uint64(0)
	for s := 0; s < NumStages; s++ {
		total += set.Stages.Stage(Stage(s)).Snapshot().Count
	}
	if total != writers*rounds {
		t.Errorf("stage observations %d, want %d", total, writers*rounds)
	}
	if mm.Transitions.Value() != writers*rounds {
		t.Errorf("transitions %d, want %d", mm.Transitions.Value(), writers*rounds)
	}
}
