package lu

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// FileStore keeps the matrix on disk the way the paper's lu does: the
// data is striped across several files (the paper used 8), each file
// holding a horizontal band of rows. A slab (column block) therefore
// spans all files, which is what shapes lu's request-size distribution:
// reading one slab's at/below-diagonal portion issues one request per
// file, each 1/files of the slab height.
type FileStore struct {
	dir   string
	files []*os.File
	rows  int
	cols  int
	slabs int
	// stripeRows is rows per file band.
	stripeRows int
}

var _ SlabStore = (*FileStore)(nil)

// CreateFileStore lays out an empty rows x (cols*slabs) matrix across
// nfiles band files in dir. The opened band files move into st.files;
// FileStore.Close owns them from there.
func CreateFileStore(dir string, rows, cols, slabs, nfiles int) (*FileStore, error) {
	if nfiles < 1 {
		return nil, fmt.Errorf("lu: %d band files", nfiles)
	}
	if rows%nfiles != 0 {
		return nil, fmt.Errorf("lu: rows %d not divisible by %d files", rows, nfiles)
	}
	// Size each band, stripeRows x (cols*slabs) doubles, before any
	// file is created: a size past int64 would wrap.
	band := int64(rows / nfiles)
	for _, n := range []int64{int64(cols), int64(slabs), elemSize} {
		if n > 0 && band > math.MaxInt64/n {
			return nil, fmt.Errorf("lu: a band of %d x %d x %d doubles overflows a file size", rows/nfiles, cols, slabs)
		}
		band *= n
	}
	st := &FileStore{
		dir:        dir,
		rows:       rows,
		cols:       cols,
		slabs:      slabs,
		stripeRows: rows / nfiles,
	}
	for i := 0; i < nfiles; i++ {
		f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("band%02d.mat", i)), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
		if err != nil {
			_ = st.Close()
			return nil, fmt.Errorf("lu: creating band file %d: %w", i, err)
		}
		if err := f.Truncate(band); err != nil {
			_ = f.Close()
			_ = st.Close()
			return nil, fmt.Errorf("lu: sizing band file %d: %w", i, err)
		}
		st.files = append(st.files, f)
	}
	return st, nil
}

// Close releases the band files.
func (st *FileStore) Close() error {
	var first error
	for _, f := range st.files {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	st.files = nil
	return first
}

// Slabs returns the slab count.
func (st *FileStore) Slabs() int { return st.slabs }

// SlabCols returns columns per slab.
func (st *FileStore) SlabCols() int { return st.cols }

// Rows returns the row count.
func (st *FileStore) Rows() int { return st.rows }

// bandOffset returns the byte offset of slab j within a band file: each
// band stores its rows column-major, slab after slab.
func (st *FileStore) bandOffset(j int) int64 {
	return int64(j) * int64(st.stripeRows) * int64(st.cols) * elemSize
}

// ReadSlab gathers slab j from every band file.
func (st *FileStore) ReadSlab(j int, dst []float64) error {
	if j < 0 || j >= st.slabs {
		return fmt.Errorf("lu: slab %d out of range", j)
	}
	buf := make([]byte, st.stripeRows*st.cols*elemSize)
	for b, f := range st.files {
		if _, err := f.ReadAt(buf, st.bandOffset(j)); err != nil {
			return fmt.Errorf("lu: reading slab %d band %d: %w", j, b, err)
		}
		// Band b holds rows [b*stripeRows, (b+1)*stripeRows), stored
		// column-major within the band.
		base := b * st.stripeRows
		for c := 0; c < st.cols; c++ {
			for r := 0; r < st.stripeRows; r++ {
				bits := binary.LittleEndian.Uint64(buf[(c*st.stripeRows+r)*elemSize:])
				dst[c*st.rows+base+r] = math.Float64frombits(bits)
			}
		}
	}
	return nil
}

// WriteSlab scatters slab j across the band files.
func (st *FileStore) WriteSlab(j int, src []float64) error {
	if j < 0 || j >= st.slabs {
		return fmt.Errorf("lu: slab %d out of range", j)
	}
	buf := make([]byte, st.stripeRows*st.cols*elemSize)
	for b, f := range st.files {
		base := b * st.stripeRows
		for c := 0; c < st.cols; c++ {
			for r := 0; r < st.stripeRows; r++ {
				binary.LittleEndian.PutUint64(buf[(c*st.stripeRows+r)*elemSize:],
					math.Float64bits(src[c*st.rows+base+r]))
			}
		}
		if _, err := f.WriteAt(buf, st.bandOffset(j)); err != nil {
			return fmt.Errorf("lu: writing slab %d band %d: %w", j, b, err)
		}
	}
	return nil
}

// LoadMatrix writes a full matrix into the store, slab by slab.
func (st *FileStore) LoadMatrix(m *Matrix) error {
	if m.N != st.rows || st.cols*st.slabs != m.N {
		return fmt.Errorf("lu: matrix %d does not fit store %dx%d", m.N, st.rows, st.cols*st.slabs)
	}
	slab := make([]float64, st.rows*st.cols)
	for j := 0; j < st.slabs; j++ {
		copy(slab, m.Data[j*st.cols*st.rows:(j+1)*st.cols*st.rows])
		if err := st.WriteSlab(j, slab); err != nil {
			return err
		}
	}
	return nil
}

// ExtractMatrix reassembles the stored matrix.
func (st *FileStore) ExtractMatrix() (*Matrix, error) {
	m := NewMatrix(st.rows)
	slab := make([]float64, st.rows*st.cols)
	for j := 0; j < st.slabs; j++ {
		if err := st.ReadSlab(j, slab); err != nil {
			return nil, err
		}
		copy(m.Data[j*st.cols*st.rows:(j+1)*st.cols*st.rows], slab)
	}
	return m, nil
}
