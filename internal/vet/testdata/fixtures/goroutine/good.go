package fixture

import (
	"sync"
	"time"
)

// Worker shows the accepted lifecycle shapes; the analyzer must stay
// silent on every one of them. Since the PR 9 tightening, a quit signal
// alone is not enough — every background goroutine must also be joined
// on drain (a WaitGroup or a done channel some drain path receives from).
type Worker struct {
	wg     sync.WaitGroup
	quit   chan struct{}
	work   chan int
	done   chan struct{}
	ranged chan struct{}
	n      int
}

// RunJoined ties the goroutine to a WaitGroup.
func (w *Worker) RunJoined() {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		w.n++
	}()
	w.wg.Wait()
}

// RunSignalled is quit-signalled AND joined: the loop selects on the quit
// channel, and closes the done field channel on exit; Drain — a separate
// method, the Close pattern — receives from it, so the spawner can wait
// for the loop to actually be gone.
func (w *Worker) RunSignalled() {
	go func() {
		defer close(w.done)
		for {
			select {
			case <-w.quit:
				return
			case v := <-w.work:
				w.n += v
			}
		}
	}()
}

// RunRange ties the goroutine to its work channel (closing the channel
// stops it) and joins it through the ranged field channel the drain path
// receives from.
func (w *Worker) RunRange() {
	go w.consume()
}

func (w *Worker) consume() {
	defer close(w.ranged)
	for range w.work {
	}
}

// Drain is the join side of RunSignalled and RunRange: close(w.quit) and
// close(w.work) tell the goroutines to stop; the receives wait until they
// have.
func (w *Worker) Drain() {
	close(w.quit)
	close(w.work)
	<-w.done
	<-w.ranged
}

// RunHandshake joins through a done channel the spawner receives from —
// the inline drain pattern.
func (w *Worker) RunHandshake() {
	done := make(chan struct{})
	go func() {
		w.n++
		close(done)
	}()
	<-done
}

// RunDetached is deliberately fire-and-forget and says so.
func (w *Worker) RunDetached() {
	// pythia:allow goroutine-lifecycle — one-shot best-effort notification;
	// the process outliving it is fine and nothing observes its completion.
	go func() {
		w.n++
	}()
}

// RetryBounded is a legal retry: the counted loop bounds the attempts, so
// a constant sleep between them is fine.
func (w *Worker) RetryBounded() bool {
	for i := 0; i < 5; i++ {
		if w.n > 0 {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// RetryBackoff is a legal unbounded retry: the sleep argument is computed
// (capped exponential backoff), not a fixed cadence.
func (w *Worker) RetryBackoff() {
	delay := time.Millisecond
	for {
		if w.n > 0 {
			return
		}
		time.Sleep(delay)
		if delay *= 2; delay > time.Second {
			delay = time.Second
		}
	}
}

// RetryStoppable is a legal unbounded retry: the select on the quit
// channel gives the spawner a way to end it, even though the tick interval
// is constant.
func (w *Worker) RetryStoppable(tick <-chan time.Time) {
	for {
		select {
		case <-w.quit:
			return
		case <-tick:
			w.n++
		}
	}
}
