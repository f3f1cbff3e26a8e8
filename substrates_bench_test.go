package salsa_test

import (
	"testing"

	"salsa/internal/lifostack"
	"salsa/internal/msqueue"
)

// BenchmarkSubstrateQueues compares the raw FIFO/LIFO substrates this
// repository builds SALSA's baselines on, single-threaded enqueue+dequeue
// pairs — a floor-cost census for interpreting the pool-level numbers.
func BenchmarkSubstrateQueues(b *testing.B) {
	payload := 42

	b.Run("msqueue", func(b *testing.B) {
		q := msqueue.New[*int]()
		for i := 0; i < b.N; i++ {
			q.Enqueue(&payload)
			if _, ok := q.Dequeue(); !ok {
				b.Fatal("lost element")
			}
		}
	})
	b.Run("lifostack", func(b *testing.B) {
		s := lifostack.New[*int]()
		for i := 0; i < b.N; i++ {
			s.Push(&payload)
			if _, ok := s.Pop(); !ok {
				b.Fatal("lost element")
			}
		}
	})
}

// BenchmarkSubstrateQueuesParallel runs the same pairs from all Ps — the
// contended regime where the shared-cache-line costs show.
func BenchmarkSubstrateQueuesParallel(b *testing.B) {
	payload := 42
	b.Run("msqueue", func(b *testing.B) {
		q := msqueue.New[*int]()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				q.Enqueue(&payload)
				q.Dequeue()
			}
		})
	})
}
