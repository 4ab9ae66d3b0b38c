package lu

import (
	"os"
	"path/filepath"
	"testing"
)

func TestFileStoreRoundTrip(t *testing.T) {
	const n, cols, files = 32, 8, 4
	st, err := CreateFileStore(t.TempDir(), n, cols, n/cols, files)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := RandomDiagDominant(n, 1)
	if err := st.LoadMatrix(m); err != nil {
		t.Fatal(err)
	}
	got, err := st.ExtractMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if diff := MaxAbsDiff(got, m); diff != 0 {
		t.Fatalf("file store round trip differs by %g", diff)
	}
}

// TestFailedCreateFileStoreClosesItsFiles: a band file that cannot be
// sized (here a band of 2^63 bytes, which wraps negative) fails
// CreateFileStore, and every band file it opened is closed again.
func TestFailedCreateFileStoreClosesItsFiles(t *testing.T) {
	open := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open files here: %v", err)
		}
		return len(fds)
	}
	before := open()
	if _, err := CreateFileStore(t.TempDir(), 1, 1<<60, 1, 1); err == nil {
		t.Fatal("CreateFileStore sized a band of 2^63 bytes")
	}
	if after := open(); after != before {
		t.Fatalf("%d files open after a failed CreateFileStore, %d before", after, before)
	}
}

func TestFactorOverFileStoreMatchesMemStore(t *testing.T) {
	const n, cols, files = 48, 8, 4
	m := RandomDiagDominant(n, 7)

	fst, err := CreateFileStore(t.TempDir(), n, cols, n/cols, files)
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()
	if err := fst.LoadMatrix(m); err != nil {
		t.Fatal(err)
	}
	if err := Factor(fst); err != nil {
		t.Fatal(err)
	}
	fromFile, err := fst.ExtractMatrix()
	if err != nil {
		t.Fatal(err)
	}

	mst, err := FromMatrix(m, cols)
	if err != nil {
		t.Fatal(err)
	}
	if err := Factor(mst); err != nil {
		t.Fatal(err)
	}
	fromMem := mst.ToMatrix()

	if diff := MaxAbsDiff(fromFile, fromMem); diff > 1e-12 {
		t.Fatalf("file-store factorization differs from memory by %g", diff)
	}
	// And it reconstructs the original.
	if diff := MaxAbsDiff(Reconstruct(fromFile), m); diff > 1e-9 {
		t.Fatalf("||LU - A|| = %g", diff)
	}
}

func TestFileStoreGeometryChecks(t *testing.T) {
	if _, err := CreateFileStore(t.TempDir(), 30, 8, 4, 4); err == nil {
		t.Fatal("rows not divisible by files accepted")
	}
	st, err := CreateFileStore(t.TempDir(), 32, 8, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	buf := make([]float64, 32*8)
	if err := st.ReadSlab(-1, buf); err == nil {
		t.Fatal("ReadSlab(-1) accepted")
	}
	if err := st.WriteSlab(4, buf); err == nil {
		t.Fatal("WriteSlab(4) accepted")
	}
	bad := NewMatrix(16)
	if err := st.LoadMatrix(bad); err == nil {
		t.Fatal("mismatched matrix accepted")
	}
}

func TestFileStoreCreatesBandFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := CreateFileStore(dir, 32, 8, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 4; i++ {
		path := filepath.Join(dir, "band0"+string(rune('0'+i))+".mat")
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("band file %d missing: %v", i, err)
		}
		want := int64(8) * 8 * 4 * 8 // stripeRows x cols x slabs x 8B
		if fi.Size() != want {
			t.Fatalf("band %d size = %d, want %d", i, fi.Size(), want)
		}
	}
}
