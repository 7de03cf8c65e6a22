package events

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestInternDenseIDs(t *testing.T) {
	r := NewRegistry()
	a := r.Intern("alpha")
	b := r.Intern("beta")
	if a != 0 || b != 1 {
		t.Fatalf("ids not dense: %d %d", a, b)
	}
	if r.Intern("alpha") != a {
		t.Fatal("re-interning changed the id")
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestInternArgsDiscriminates(t *testing.T) {
	r := NewRegistry()
	s3 := r.InternArgs("MPI_Send", 3)
	s5 := r.InternArgs("MPI_Send", 5)
	plain := r.Intern("MPI_Send")
	if s3 == s5 || s3 == plain || s5 == plain {
		t.Fatalf("payloads not discriminated: %d %d %d", s3, s5, plain)
	}
	if r.Name(s3) != "MPI_Send:3" {
		t.Fatalf("Name = %q", r.Name(s3))
	}
	multi := r.InternArgs("MPI_Reduce", 2, 7)
	if r.Name(multi) != "MPI_Reduce:2:7" {
		t.Fatalf("multi-arg Name = %q", r.Name(multi))
	}
}

func TestLookup(t *testing.T) {
	r := NewRegistry()
	id := r.InternArgs("x", 1)
	if got := r.Lookup("x", 1); got != id {
		t.Fatalf("Lookup = %d, want %d", got, id)
	}
	if r.Lookup("x", 2) != Invalid {
		t.Fatal("Lookup invented an id")
	}
	if r.Lookup("y") != Invalid {
		t.Fatal("Lookup invented an id for unknown name")
	}
}

func TestNameUnknown(t *testing.T) {
	r := NewRegistry()
	if r.Name(42) == "" || r.Name(-1) == "" {
		t.Fatal("unknown ids must render a placeholder")
	}
}

func TestFromNamesRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Intern("a")
	r.InternArgs("b", 9)
	r.Intern("c")
	r2, err := FromNames(r.Names())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Lookup("b", 9) != r.Lookup("b", 9) {
		t.Fatal("ids changed across FromNames")
	}
	if r2.Len() != r.Len() {
		t.Fatal("length changed")
	}
}

func TestFromNamesRejectsBadTables(t *testing.T) {
	if _, err := FromNames([]string{"a", ""}); err == nil {
		t.Fatal("empty descriptor accepted")
	}
	if _, err := FromNames([]string{"a", "a"}); err == nil {
		t.Fatal("duplicate descriptor accepted")
	}
}

func TestConcurrentInterning(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers = 8
	ids := make([][]ID, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ids[w] = append(ids[w], r.InternArgs("evt", int64(i%50)))
			}
		}(w)
	}
	wg.Wait()
	// All workers must agree on every descriptor's id.
	for w := 1; w < workers; w++ {
		for i := range ids[w] {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("worker %d saw id %d for event %d, worker 0 saw %d",
					w, ids[w][i], i, ids[0][i])
			}
		}
	}
	if r.Len() != 50 {
		t.Fatalf("Len = %d, want 50", r.Len())
	}
}

func TestQuickInternStable(t *testing.T) {
	r := NewRegistry()
	f := func(name string, arg int64) bool {
		if name == "" {
			return true
		}
		a := r.InternArgs(name, arg)
		b := r.InternArgs(name, arg)
		return a == b && r.Lookup(name, arg) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInternHit(b *testing.B) {
	r := NewRegistry()
	r.InternArgs("MPI_Send", 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.InternArgs("MPI_Send", 3)
	}
}

func ExampleRegistry() {
	r := NewRegistry()
	send := r.InternArgs("MPI_Send", 3)
	fmt.Println(send, r.Name(send))
	// Output: 0 MPI_Send:3
}
