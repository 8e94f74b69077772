package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/nvme"
)

func testManifest() *Manifest {
	return &Manifest{
		Generation: 7, World: 2, Step: 7,
		Files: []FileEntry{
			{Name: RankFileName(0), Size: 128, CRC: 0xdeadbeef},
			{Name: RankFileName(1), Size: 256, CRC: 0x01020304},
			{Name: WeightsName, Size: 4096, CRC: 0xcafebabe},
		},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := testManifest()
	got, err := DecodeManifest(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != m.Generation || got.World != m.World || got.Step != m.Step {
		t.Fatalf("header mismatch: %+v vs %+v", got, m)
	}
	if len(got.Files) != len(m.Files) {
		t.Fatalf("want %d files, got %d", len(m.Files), len(got.Files))
	}
	for i := range m.Files {
		if got.Files[i] != m.Files[i] {
			t.Fatalf("file %d: %+v vs %+v", i, got.Files[i], m.Files[i])
		}
	}
	if f, ok := got.File(WeightsName); !ok || f.Size != 4096 {
		t.Fatalf("File(%q) = %+v, %v", WeightsName, f, ok)
	}
}

// TestManifestTruncation chops the encoded manifest at every length from 0
// to full-1: every prefix must be rejected with an error, never a panic.
func TestManifestTruncation(t *testing.T) {
	enc := testManifest().Encode()
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeManifest(enc[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes was accepted", n, len(enc))
		}
	}
}

// TestManifestCorruption flips one byte at every offset: the self-checksum
// must reject every single-byte corruption.
func TestManifestCorruption(t *testing.T) {
	enc := testManifest().Encode()
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		if _, err := DecodeManifest(bad); err == nil {
			t.Fatalf("corruption at offset %d was accepted", i)
		}
	}
}

func TestManifestRejectsTrailingBytes(t *testing.T) {
	enc := testManifest().Encode()
	// Re-checksum so only the trailing garbage is wrong, not the CRC.
	body := append(append([]byte(nil), enc[:len(enc)-4]...), 0, 0, 0, 0)
	var tail [4]byte
	crc := Checksum(body)
	tail[0], tail[1], tail[2], tail[3] = byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24)
	bad := append(body, tail[:]...)
	if _, err := DecodeManifest(bad); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("want trailing-bytes error, got %v", err)
	}
}

// writeGen writes a complete generation directory by hand (no Writer).
func writeGen(t *testing.T, dir string, gen uint64, world, step int, payload byte) string {
	t.Helper()
	d := filepath.Join(dir, GenDirName(gen))
	if err := os.MkdirAll(d, 0o777); err != nil {
		t.Fatal(err)
	}
	m := &Manifest{Generation: gen, World: world, Step: step}
	for r := 0; r < world; r++ {
		data := bytes.Repeat([]byte{payload + byte(r)}, 64)
		if err := os.WriteFile(filepath.Join(d, RankFileName(r)), data, 0o666); err != nil {
			t.Fatal(err)
		}
		m.Files = append(m.Files, FileEntry{Name: RankFileName(r), Size: 64, CRC: Checksum(data)})
	}
	w := bytes.Repeat([]byte{payload ^ 0xFF}, 128)
	if err := os.WriteFile(filepath.Join(d, WeightsName), w, 0o666); err != nil {
		t.Fatal(err)
	}
	m.Files = append(m.Files, FileEntry{Name: WeightsName, Size: 128, CRC: Checksum(w)})
	if err := os.WriteFile(filepath.Join(d, ManifestName), m.Encode(), 0o666); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestOpenSetValidates(t *testing.T) {
	dir := t.TempDir()
	d := writeGen(t, dir, 3, 2, 3, 0x11)
	set, err := OpenSet(d)
	if err != nil {
		t.Fatal(err)
	}
	if set.Manifest.Generation != 3 || set.Manifest.World != 2 || set.Manifest.Step != 3 {
		t.Fatalf("bad manifest: %+v", set.Manifest)
	}
	rc, err := set.OpenRank(1)
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if _, err := set.Open("no-such-file"); err == nil {
		t.Fatal("unlisted file was opened")
	}
}

func TestOpenSetRejectsCorruptionModes(t *testing.T) {
	cases := []struct {
		name   string
		damage func(t *testing.T, d string)
		want   string
	}{
		{"missing manifest", func(t *testing.T, d string) {
			os.Remove(filepath.Join(d, ManifestName))
		}, ""},
		{"truncated data file", func(t *testing.T, d string) {
			p := filepath.Join(d, RankFileName(0))
			if err := os.Truncate(p, 10); err != nil {
				t.Fatal(err)
			}
		}, "truncated or torn"},
		{"torn data file (bit rot)", func(t *testing.T, d string) {
			p := filepath.Join(d, RankFileName(1))
			b, _ := os.ReadFile(p)
			b[len(b)/2] ^= 0x01
			os.WriteFile(p, b, 0o666)
		}, "checksum mismatch"},
		{"missing data file", func(t *testing.T, d string) {
			os.Remove(filepath.Join(d, WeightsName))
		}, ""},
		{"truncated manifest", func(t *testing.T, d string) {
			p := filepath.Join(d, ManifestName)
			b, _ := os.ReadFile(p)
			os.WriteFile(p, b[:len(b)-5], 0o666)
		}, ""},
		{"mixed-generation set", func(t *testing.T, d string) {
			// Rename the whole directory: the manifest inside now disagrees
			// with the directory's generation number.
			if err := os.Rename(d, filepath.Join(filepath.Dir(d), GenDirName(99))); err != nil {
				t.Fatal(err)
			}
		}, "mixed-generation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := writeGen(t, dir, 5, 2, 5, 0x22)
			tc.damage(t, d)
			if tc.name == "mixed-generation set" {
				d = filepath.Join(dir, GenDirName(99))
			}
			_, err := OpenSet(d)
			if err == nil {
				t.Fatal("corrupt set was accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestLatestCompleteFallsBack(t *testing.T) {
	dir := t.TempDir()
	writeGen(t, dir, 2, 2, 2, 0x33)
	writeGen(t, dir, 4, 2, 4, 0x44)
	// Generation 6 crashed mid-snapshot: data file present, no MANIFEST.
	d6 := filepath.Join(dir, GenDirName(6))
	os.MkdirAll(d6, 0o777)
	os.WriteFile(filepath.Join(d6, RankFileName(0)), []byte("partial"), 0o666)

	set, err := LatestComplete(dir)
	if err != nil {
		t.Fatal(err)
	}
	if set.Manifest.Generation != 4 {
		t.Fatalf("want fallback to generation 4, got %d", set.Manifest.Generation)
	}

	// Corrupt generation 4's weights: fallback continues to generation 2.
	p := filepath.Join(dir, GenDirName(4), WeightsName)
	b, _ := os.ReadFile(p)
	b[0] ^= 0xFF
	os.WriteFile(p, b, 0o666)
	set, err = LatestComplete(dir)
	if err != nil {
		t.Fatal(err)
	}
	if set.Manifest.Generation != 2 {
		t.Fatalf("want fallback to generation 2, got %d", set.Manifest.Generation)
	}
}

func TestLatestCompleteEmpty(t *testing.T) {
	if _, err := LatestComplete(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint, got %v", err)
	}
	if _, err := LatestComplete(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint for missing dir, got %v", err)
	}
}

// LatestComplete says which generations it fell back past and why; when
// generations exist but none validates, the error names every one of them
// and still matches ErrNoCheckpoint.
func TestLatestCompleteReportsSkipped(t *testing.T) {
	dir := t.TempDir()
	writeGen(t, dir, 2, 2, 2, 0x33)
	d4 := writeGen(t, dir, 4, 2, 4, 0x44)
	if err := os.Truncate(filepath.Join(d4, RankFileName(1)), 10); err != nil {
		t.Fatal(err)
	}
	d6 := filepath.Join(dir, GenDirName(6))
	if err := os.MkdirAll(d6, 0o777); err != nil {
		t.Fatal(err)
	}

	set, err := LatestComplete(dir)
	if err != nil {
		t.Fatal(err)
	}
	if set.Manifest.Generation != 2 || len(set.Skipped) != 2 {
		t.Fatalf("opened generation %d past %d skipped, want 2 past 2: %v", set.Manifest.Generation, len(set.Skipped), set.Skipped)
	}
	for i, d := range []string{d6, d4} {
		if !strings.Contains(set.Skipped[i].Error(), d) {
			t.Errorf("skipped[%d] = %v, want it to name %s", i, set.Skipped[i], d)
		}
	}
	if !errors.Is(set.Skipped[0], os.ErrNotExist) || !strings.Contains(set.Skipped[1].Error(), "truncated") {
		t.Errorf("skipped causes: %v", set.Skipped)
	}

	if err := os.RemoveAll(filepath.Join(dir, GenDirName(2))); err != nil {
		t.Fatal(err)
	}
	_, err = LatestComplete(dir)
	var invalid *InvalidGenerationsError
	if !errors.As(err, &invalid) || !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("want an InvalidGenerationsError matching ErrNoCheckpoint, got %v", err)
	}
	if len(invalid.Skipped) != 2 || !strings.Contains(err.Error(), d4) || !strings.Contains(err.Error(), d6) {
		t.Fatalf("error does not name both generations: %v", err)
	}
}

// submitGen pushes one full generation (world rank files + weights) through
// the writer and returns its ticket.
func submitGen(w *Writer, gen uint64, world int, payload byte) *Ticket {
	for r := 0; r < world; r++ {
		st := w.Stage()
		st.Write(bytes.Repeat([]byte{payload + byte(r)}, 100))
		w.Submit(gen, int(gen), RankFileName(r), st)
	}
	ws := w.Stage()
	ws.Write(bytes.Repeat([]byte{payload ^ 0xAA}, 300))
	return w.Submit(gen, int(gen), WeightsName, ws)
}

func TestWriterCommitsValidGenerations(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, WriterOptions{World: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := submitGen(w, 10, 2, 0x10).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := submitGen(w, 20, 2, 0x20).Wait(); err != nil {
		t.Fatal(err)
	}
	if got := w.Committed(); got != 20 {
		t.Fatalf("Committed() = %d, want 20", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	set, err := LatestComplete(dir)
	if err != nil {
		t.Fatal(err)
	}
	if set.Manifest.Generation != 20 || set.Manifest.Step != 20 || set.Manifest.World != 2 {
		t.Fatalf("bad manifest: %+v", set.Manifest)
	}
	rc, err := set.OpenRank(1)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	got := make([]byte, 100)
	if _, err := rc.Read(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0x21}, 100)) {
		t.Fatal("rank file contents mismatch")
	}
}

func TestWriterPrunesOldGenerations(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, WriterOptions{World: 1, KeepGenerations: 2})
	if err != nil {
		t.Fatal(err)
	}
	for gen := uint64(1); gen <= 5; gen++ {
		if err := submitGen(w, gen, 1, byte(gen)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	gens, err := Generations(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(gens) != "[4 5]" {
		t.Fatalf("want generations [4 5] after pruning, got %v", gens)
	}
}

func TestWriterRetriesTransientFault(t *testing.T) {
	dir := t.TempDir()
	inj := &nvme.FaultInjector{}
	inj.Arm(nvme.FaultArm{Op: nvme.Write, Nth: 1, Count: 1})
	w, err := NewWriter(dir, WriterOptions{
		World: 1, Faults: inj, Retries: 2, RetryBackoff: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := submitGen(w, 1, 1, 0x55).Wait(); err != nil {
		t.Fatalf("transient fault not absorbed: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if inj.Fired() == 0 {
		t.Fatal("fault never fired")
	}
	if _, err := LatestComplete(dir); err != nil {
		t.Fatal(err)
	}
}

func TestWriterPersistentFaultLeavesNoManifest(t *testing.T) {
	dir := t.TempDir()
	inj := &nvme.FaultInjector{}
	inj.Arm(nvme.FaultArm{Op: nvme.Write, Nth: 1, Count: 1 << 30})
	w, err := NewWriter(dir, WriterOptions{
		World: 1, Faults: inj, Retries: 1, RetryBackoff: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := submitGen(w, 1, 1, 0x66).Wait(); !errors.Is(err, nvme.ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if err := w.Close(); !errors.Is(err, nvme.ErrInjected) {
		t.Fatalf("want sticky ErrInjected from Close, got %v", err)
	}
	if _, err := LatestComplete(dir); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("failed generation must not be loadable, got %v", err)
	}
}

func TestWriterKillAfterLeavesPartialGeneration(t *testing.T) {
	dir := t.TempDir()
	// World 2 → 3 files per generation. Kill after the 2nd data file: the
	// generation dir exists, has files, but never gets a MANIFEST.
	w, err := NewWriter(dir, WriterOptions{World: 2, KillAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := submitGen(w, 1, 2, 0x77).Wait(); !errors.Is(err, ErrKilled) {
		t.Fatalf("want ErrKilled, got %v", err)
	}
	w.Close()
	if _, err := os.Stat(filepath.Join(dir, GenDirName(1))); err != nil {
		t.Fatalf("partial generation dir should exist: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, GenDirName(1), ManifestName)); !os.IsNotExist(err) {
		t.Fatalf("killed generation must have no MANIFEST, stat err = %v", err)
	}
	if _, err := LatestComplete(dir); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("partial generation must not load, got %v", err)
	}
}

func TestWriterKilledAfterCommitKeepsEarlierGeneration(t *testing.T) {
	dir := t.TempDir()
	// World 1 → 2 files per generation. First generation commits, then the
	// kill lands mid-second-generation.
	w, err := NewWriter(dir, WriterOptions{World: 1, KillAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := submitGen(w, 1, 1, 0x01).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := submitGen(w, 2, 1, 0x02).Wait(); !errors.Is(err, ErrKilled) {
		t.Fatalf("want ErrKilled on second generation, got %v", err)
	}
	w.Close()
	set, err := LatestComplete(dir)
	if err != nil {
		t.Fatal(err)
	}
	if set.Manifest.Generation != 1 {
		t.Fatalf("want surviving generation 1, got %d", set.Manifest.Generation)
	}
}

func TestWriterCloseFailsIncompleteSubmissions(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, WriterOptions{World: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stage()
	st.Write([]byte("only one rank showed up"))
	tk := w.Submit(1, 1, RankFileName(0), st)
	w.Close()
	if err := tk.Wait(); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("want ErrWriterClosed, got %v", err)
	}
	if tk2 := w.Submit(2, 2, RankFileName(0), w.Stage()); !errors.Is(tk2.Wait(), ErrWriterClosed) {
		t.Fatal("submit after Close must fail")
	}
}

// TestStagingReusesArena checks the steady-state allocation story: after the
// first generation warms the arena, staging equal-sized buffers recycles the
// same backing memory rather than growing the heap.
func TestStagingReusesArena(t *testing.T) {
	w, err := NewWriter(t.TempDir(), WriterOptions{World: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	payload := bytes.Repeat([]byte{0x5A}, 10_000)
	st := w.Stage()
	st.Write(payload)
	first := &st.buf[:1][0]
	w.Recycle(st)
	for i := 0; i < 8; i++ {
		st := w.Stage()
		st.Write(payload)
		if &st.buf[:1][0] != first {
			t.Fatalf("iteration %d: staging buffer not recycled from arena", i)
		}
		w.Recycle(st)
	}
}

func TestGenDirNameRoundTrip(t *testing.T) {
	for _, gen := range []uint64{0, 1, 42, 1<<32 + 5} {
		g, ok := parseGenDir(GenDirName(gen))
		if !ok || g != gen {
			t.Fatalf("parseGenDir(GenDirName(%d)) = %d, %v", gen, g, ok)
		}
	}
	for _, bad := range []string{"gen-", "gen-xx", "other", "gen-12a"} {
		if _, ok := parseGenDir(bad); ok {
			t.Fatalf("parseGenDir(%q) accepted", bad)
		}
	}
}
