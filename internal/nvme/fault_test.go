package nvme

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestFaultErrorSurfacesOnTicket(t *testing.T) {
	inj := &FaultInjector{}
	inj.Arm(FaultArm{Op: Write, Nth: 1})
	e := NewEngine(NewMemStore(1<<16), Options{Workers: 1, ChunkSize: 1 << 16, Faults: inj})
	defer e.Close()
	err := e.Write(make([]byte, 1024), 0)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if inj.Fired() != 1 {
		t.Fatalf("want 1 fired fault, got %d", inj.Fired())
	}
}

// A caller-owned ticket reissued after a failed request reports that new
// request alone: the injected error does not stick to it.
func TestReusedTicketClearsInjectedError(t *testing.T) {
	inj := &FaultInjector{}
	inj.Arm(FaultArm{Op: Write, Nth: 1})
	e := NewEngine(NewMemStore(1<<16), Options{Workers: 2, ChunkSize: 256, Faults: inj})
	defer e.Close()
	var tk Ticket
	data := bytes.Repeat([]byte{0x5A}, 1024)
	e.Issue(&tk, Write, data, 0)
	if err := tk.Wait(); !errors.Is(err, ErrInjected) {
		t.Fatalf("faulted write: want ErrInjected, got %v", err)
	}
	e.Issue(&tk, Write, data, 0)
	if err := tk.Wait(); err != nil {
		t.Fatalf("clean write on the reused ticket: %v", err)
	}
	got := make([]byte, len(data))
	e.Issue(&tk, Read, got, 0)
	if err := tk.Wait(); err != nil {
		t.Fatalf("clean read on the reused ticket: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted after the retried write")
	}
}

func TestRetryClearsTransientFault(t *testing.T) {
	inj := &FaultInjector{}
	// Two consecutive write faults, three attempts budgeted: the third
	// attempt finds the arm exhausted and succeeds.
	inj.Arm(FaultArm{Op: Write, Nth: 1, Count: 2})
	e := NewEngine(NewMemStore(1<<16), Options{
		Workers: 1, ChunkSize: 1 << 16, Faults: inj,
		Retries: 3, RetryBackoff: time.Microsecond,
	})
	defer e.Close()
	data := bytes.Repeat([]byte{0xAB}, 1024)
	if err := e.Write(data, 0); err != nil {
		t.Fatalf("transient fault not absorbed by retry: %v", err)
	}
	got := make([]byte, len(data))
	if err := e.Read(got, 0); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted after retried write")
	}
	if s := e.Stats(); s.Retried != 2 {
		t.Fatalf("want 2 retries recorded, got %d", s.Retried)
	}
}

func TestPersistentFaultExhaustsRetryBudget(t *testing.T) {
	inj := &FaultInjector{}
	inj.Arm(FaultArm{Op: Read, Nth: 1, Count: 100})
	e := NewEngine(NewMemStore(1<<16), Options{
		Workers: 1, ChunkSize: 1 << 16, Faults: inj,
		Retries: 2, RetryBackoff: time.Microsecond,
	})
	defer e.Close()
	if err := e.Read(make([]byte, 64), 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected after exhausted retries, got %v", err)
	}
}

func TestTornWriteLeavesPartialData(t *testing.T) {
	inj := &FaultInjector{}
	inj.Arm(FaultArm{Op: Write, Nth: 1, Mode: FaultTorn})
	store := NewMemStore(1 << 16)
	e := NewEngine(store, Options{Workers: 1, ChunkSize: 1 << 16, Faults: inj})
	defer e.Close()
	data := bytes.Repeat([]byte{0xCD}, 1024)
	if err := e.Write(data, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected from torn write, got %v", err)
	}
	got := make([]byte, len(data))
	if err := e.Read(got, 0); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(got[:512], data[:512]) {
		t.Fatal("torn write should have committed the first half")
	}
	if bytes.Equal(got[512:], data[512:]) {
		t.Fatal("torn write committed the whole buffer; nothing was torn")
	}
}

func TestFaultDelayCompletesNormally(t *testing.T) {
	inj := &FaultInjector{}
	inj.Arm(FaultArm{Op: Write, Nth: 1, Mode: FaultDelay, Delay: 5 * time.Millisecond})
	e := NewEngine(NewMemStore(1<<16), Options{Workers: 1, ChunkSize: 1 << 16, Faults: inj})
	defer e.Close()
	start := time.Now()
	if err := e.Write(make([]byte, 64), 0); err != nil {
		t.Fatalf("delayed write should succeed: %v", err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("delay fault did not delay (took %v)", d)
	}
}

func TestFaultNthTargetsLaterRequest(t *testing.T) {
	inj := &FaultInjector{}
	inj.Arm(FaultArm{Op: Write, Nth: 3})
	e := NewEngine(NewMemStore(1<<20), Options{Workers: 1, ChunkSize: 1 << 10, Faults: inj})
	defer e.Close()
	// 4 KiB at 1 KiB chunks = 4 sub-requests; the third faults, so the bulk
	// write as a whole errors while requests 1, 2, 4 succeed.
	if err := e.Write(make([]byte, 4<<10), 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected on 3rd chunk, got %v", err)
	}
	if inj.Fired() != 1 {
		t.Fatalf("want exactly 1 fired fault, got %d", inj.Fired())
	}
}
