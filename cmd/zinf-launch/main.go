// Command zinf-launch runs multi-process training: it spawns one
// zinf-train worker process per rank, wires them into a socket-transport
// world (a full mesh; rank 0 listens on the coordinator address and tells
// every rank where its peers listen), ships the
// resolved training recipe as JSON, prefixes each worker's output with its
// rank, and aggregates exit status — any rank failing kills the world.
//
// Examples:
//
//	zinf-launch -ranks 4 -engine zero3 -steps 10
//	zinf-launch -ranks 4 -transport mem      # same recipe, one process
//
// The trajectory is bit-identical across -transport sock and mem (and to
// plain zinf-train): transports carry bytes, the shared collective kernels
// define the arithmetic.
//
// Workers are spawned as `zinf-train -worker` with the environment:
//
//	ZINF_WORKER_RANK       this rank (0..world-1)
//	ZINF_WORKER_WORLD      world size
//	ZINF_WORKER_COORD      coordinator (rank 0) TCP address
//	ZINF_WORKER_TRANSPORT  "sock" or "mem"
//	ZINF_CONFIG            JSON cliconfig.WorkerSpec (the training recipe)
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"

	zeroinf "repro"
	"repro/internal/cliconfig"
)

func main() {
	t := cliconfig.TrainDefaults()
	cliconfig.AddTrain(flag.CommandLine, &t)
	var (
		transport = flag.String("transport", "sock", "worker transport: sock (one process per rank) | mem (one process, goroutine ranks)")
		trainBin  = flag.String("train-bin", "", "path to the zinf-train binary (default: next to this binary, else $PATH)")
		coord     = flag.String("coord", "127.0.0.1:0", "coordinator (rank 0) bind address for the sock transport (port 0 = auto-pick)")
		dataSeed  = flag.Uint64("data-seed", 0, "synthetic-data seed (0 = library default)")
	)
	flag.Parse()

	spec, err := t.WorkerSpec()
	if err != nil {
		log.Fatal(err)
	}
	spec.DataSeed = *dataSeed
	if t.Ranks < 1 {
		log.Fatalf("zinf-launch: -ranks %d < 1", t.Ranks)
	}
	// Fail fast — with the exact error installation would produce — before
	// any worker process exists.
	if err := zeroinf.ValidateTopology(spec.Engine.Topology, t.Ranks); err != nil {
		log.Fatal(err)
	}
	if *transport != "sock" && *transport != "mem" {
		log.Fatalf("zinf-launch: unknown transport %q (sock|mem)", *transport)
	}
	specJSON, err := cliconfig.MarshalWorkerSpec(spec)
	if err != nil {
		log.Fatal(err)
	}

	bin := *trainBin
	if bin == "" {
		bin = findTrainBin()
	}
	addr := *coord
	if *transport == "sock" && t.Ranks > 1 {
		if addr, err = pickAddr(*coord); err != nil {
			log.Fatal(err)
		}
	}

	procs := t.Ranks
	if *transport == "mem" {
		procs = 1
	}
	fmt.Printf("launching %d worker process(es), %d ranks, transport %s, engine %s\n",
		procs, t.Ranks, *transport, t.Engine)

	cmds := make([]*exec.Cmd, procs)
	for r := 0; r < procs; r++ {
		cmd := exec.Command(bin, "-worker")
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("ZINF_WORKER_RANK=%d", r),
			fmt.Sprintf("ZINF_WORKER_WORLD=%d", t.Ranks),
			"ZINF_WORKER_COORD="+addr,
			"ZINF_WORKER_TRANSPORT="+*transport,
			"ZINF_CONFIG="+string(specJSON),
		)
		pw := &prefixWriter{w: os.Stdout, prefix: fmt.Sprintf("[rank %d] ", r)}
		cmd.Stdout = pw
		cmd.Stderr = pw
		cmds[r] = cmd
	}
	for r, cmd := range cmds {
		if err := cmd.Start(); err != nil {
			killAll(cmds[:r])
			log.Fatalf("zinf-launch: starting rank %d (%s): %v", r, bin, err)
		}
	}

	// Any rank failing kills the world: a dead rank can never rejoin a
	// collective, so the others would only hang until their reads error.
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for r, cmd := range cmds {
		wg.Add(1)
		go func(rank int, cmd *exec.Cmd) {
			defer wg.Done()
			err := cmd.Wait()
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("zinf-launch: rank %d: %w", rank, err)
				killAll(cmds)
			}
		}(r, cmd)
	}
	wg.Wait()
	for _, cmd := range cmds {
		if pw, ok := cmd.Stdout.(*prefixWriter); ok {
			pw.Flush()
		}
	}
	if firstErr != nil {
		log.Fatal(firstErr)
	}
	fmt.Println("all ranks completed")
}

// findTrainBin prefers a zinf-train sitting next to this binary (the
// normal `go build -o bin/ ./cmd/...` layout), falling back to $PATH.
func findTrainBin() string {
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), "zinf-train")
		if st, err := os.Stat(cand); err == nil && !st.IsDir() {
			return cand
		}
	}
	return "zinf-train"
}

// pickAddr resolves a ":0" coordinator address to a concrete port by
// binding and releasing it, so every worker can be handed the same
// dialable address before rank 0 is listening.
func pickAddr(coord string) (string, error) {
	l, err := net.Listen("tcp", coord)
	if err != nil {
		return "", fmt.Errorf("zinf-launch: probing coordinator address %s: %w", coord, err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

func killAll(cmds []*exec.Cmd) {
	for _, cmd := range cmds {
		if cmd != nil && cmd.Process != nil {
			cmd.Process.Kill()
		}
	}
}

// prefixWriter prepends a rank tag to every output line, buffering partial
// lines so interleaved workers stay readable.
type prefixWriter struct {
	mu     sync.Mutex
	w      io.Writer
	prefix string
	buf    bytes.Buffer
}

func (p *prefixWriter) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buf.Write(b)
	for {
		line, err := p.buf.ReadBytes('\n')
		if err != nil {
			// Incomplete line: keep it buffered for the next Write.
			p.buf.Write(line)
			break
		}
		fmt.Fprintf(p.w, "%s%s", p.prefix, line)
	}
	return len(b), nil
}

// Flush drains any unterminated final line.
func (p *prefixWriter) Flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.buf.Len() > 0 {
		fmt.Fprintf(p.w, "%s%s\n", p.prefix, p.buf.Bytes())
		p.buf.Reset()
	}
}
