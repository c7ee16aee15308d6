package frameworks

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"graphtensor/internal/pipeline"
)

// ErrCheckpointCorrupt marks a snapshot that fails structural or checksum
// validation — truncated file, bad magic, flipped bits. Restore callers
// (the training driver) treat it as "fall back to the previous good
// snapshot", never as "start from zero weights".
var ErrCheckpointCorrupt = errors.New("frameworks: checkpoint corrupt")

// checkpointMagic is the versioned file signature; bumping the trailing
// digit invalidates every older snapshot rather than misreading it.
const checkpointMagic = "GTCKPT1\n"

// Checkpoint writes a restartable snapshot of the trainer to path: the
// canonical weights (the device group's replica 0), the schedule cursor
// `step` (consumed-batch count — the only RNG state SGD training has beyond
// the seed, since the optimizer itself is stateless) and the seed +
// architecture dims that guard a mismatched restore. The snapshot is
// CRC32-sealed and lands via write-to-temp + fsync + rename, so a crash
// mid-checkpoint leaves the previous file intact and a torn write is
// detected, not silently loaded.
func (t *Trainer) Checkpoint(path string, step uint64) error {
	var buf bytes.Buffer
	buf.WriteString(checkpointMagic)
	w64 := func(v uint64) { binary.Write(&buf, binary.LittleEndian, v) }
	w64(t.Opt.Seed)
	w64(step)
	w64(uint64(len(t.Model.Layers)))
	for _, l := range t.Model.Layers {
		w64(uint64(l.W.Rows))
		w64(uint64(l.W.Cols))
		w64(uint64(len(l.B)))
		writeF32(&buf, l.W.Data)
		writeF32(&buf, l.B)
	}
	sum := crc32.ChecksumIEEE(buf.Bytes())
	binary.Write(&buf, binary.LittleEndian, sum)

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Restore loads a Checkpoint snapshot, installs its weights into the model
// (and every data-parallel replica) and rewinds the schedule cursor, so the
// next consumed batch is exactly the one the interrupted run would have
// drawn next — on any device count. It returns the restored step. A damaged
// file fails with ErrCheckpointCorrupt (wrapped); a structurally valid
// snapshot of a different seed or architecture fails with a plain error,
// because loading it would be silent nonsense, not damage.
func (t *Trainer) Restore(path string) (uint64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if len(raw) < len(checkpointMagic)+4 || string(raw[:len(checkpointMagic)]) != checkpointMagic {
		return 0, fmt.Errorf("%w: %s: bad magic or truncated header", ErrCheckpointCorrupt, path)
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return 0, fmt.Errorf("%w: %s: checksum mismatch", ErrCheckpointCorrupt, path)
	}
	r := bytes.NewReader(body[len(checkpointMagic):])
	r64 := func() uint64 {
		var v uint64
		if err == nil {
			err = binary.Read(r, binary.LittleEndian, &v)
		}
		return v
	}
	seed, step, nLayers := r64(), r64(), r64()
	if err != nil {
		return 0, fmt.Errorf("%w: %s: truncated header", ErrCheckpointCorrupt, path)
	}
	if seed != t.Opt.Seed {
		return 0, fmt.Errorf("frameworks: checkpoint %s: seed %d does not match trainer seed %d", path, seed, t.Opt.Seed)
	}
	if int(nLayers) != len(t.Model.Layers) {
		return 0, fmt.Errorf("frameworks: checkpoint %s: %d layers, trainer model has %d", path, nLayers, len(t.Model.Layers))
	}
	weights := make([][]float32, 0, 2*nLayers)
	for li, l := range t.Model.Layers {
		rows, cols, blen := r64(), r64(), r64()
		if err != nil {
			return 0, fmt.Errorf("%w: %s: truncated layer %d header", ErrCheckpointCorrupt, path, li)
		}
		if int(rows) != l.W.Rows || int(cols) != l.W.Cols || int(blen) != len(l.B) {
			return 0, fmt.Errorf("frameworks: checkpoint %s: layer %d is %dx%d/%d, trainer model wants %dx%d/%d",
				path, li, rows, cols, blen, l.W.Rows, l.W.Cols, len(l.B))
		}
		w := make([]float32, rows*cols)
		b := make([]float32, blen)
		if err := readF32(r, w); err != nil {
			return 0, fmt.Errorf("%w: %s: truncated layer %d weights", ErrCheckpointCorrupt, path, li)
		}
		if err := readF32(r, b); err != nil {
			return 0, fmt.Errorf("%w: %s: truncated layer %d bias", ErrCheckpointCorrupt, path, li)
		}
		weights = append(weights, w, b)
	}
	if r.Len() != 0 {
		return 0, fmt.Errorf("%w: %s: %d trailing bytes", ErrCheckpointCorrupt, path, r.Len())
	}

	// Validation complete — only now touch live state. Every replica gets
	// the same restored weights; the cursor makes nextDsts resume at the
	// interrupted run's next draw.
	for i := 0; i < t.group.NumDevices(); i++ {
		rep := t.group.Replica(i)
		for li := range rep.Layers {
			copy(rep.Layers[li].W.Data, weights[2*li])
			copy(rep.Layers[li].B, weights[2*li+1])
		}
	}
	t.batchSeq = step
	return step, nil
}

// TrainStreamHook is TrainStream with a callback after every consumed
// batch — the training driver's checkpoint cadence rides it. A non-nil
// error from after stops the stream and is returned as-is.
func (t *Trainer) TrainStreamHook(ring *pipeline.Ring, n int, after func(i int, loss float64) error) (float64, error) {
	var lossSum float64
	for i := 0; i < n; i++ {
		b, err := ring.Next()
		if err != nil {
			return 0, err
		}
		loss, err := t.Compute(b)
		if err != nil {
			b.Release()
			return 0, err
		}
		b.Release()
		lossSum += loss
		if after != nil {
			if err := after(i, loss); err != nil {
				return 0, err
			}
		}
	}
	if n <= 0 {
		return 0, nil
	}
	return lossSum / float64(n), nil
}

func writeF32(buf *bytes.Buffer, v []float32) {
	var scratch [4]byte
	for _, f := range v {
		binary.LittleEndian.PutUint32(scratch[:], math.Float32bits(f))
		buf.Write(scratch[:])
	}
}

func readF32(r *bytes.Reader, dst []float32) error {
	var scratch [4]byte
	for i := range dst {
		if _, err := io.ReadFull(r, scratch[:]); err != nil {
			return err
		}
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(scratch[:]))
	}
	return nil
}
