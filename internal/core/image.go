package core

import (
	"fmt"

	"ecarray/internal/sim"
)

// Image is an RBD block device striped over 4 MiB RADOS objects (§II-A):
// libRBD maps a block offset to the object covering it and forwards the
// request through libRADOS to that object's PG.
type Image struct {
	pool  *Pool
	name  string
	size  int64
	names []string // ObjectName by index, built on first use
}

// CreateImage creates a block image of the given size on the pool.
func (c *Cluster) CreateImage(pool, name string, size int64) (*Image, error) {
	pl := c.Pool(pool)
	if pl == nil {
		return nil, fmt.Errorf("core: no pool %q", pool)
	}
	if size <= 0 {
		return nil, fmt.Errorf("core: image size must be positive")
	}
	img := &Image{pool: pl, name: name, size: size}
	img.names = make([]string, img.Objects())
	return img, nil
}

// Size returns the image size in bytes.
func (img *Image) Size() int64 { return img.size }

// Objects returns how many RADOS objects the image spans.
func (img *Image) Objects() int64 {
	os := img.pool.c.cfg.ObjectSize
	return (img.size + os - 1) / os
}

// ObjectName returns the RADOS object name for object index idx, following
// the rbd_data naming convention.
func (img *Image) ObjectName(idx int64) string {
	if idx < 0 || idx >= int64(len(img.names)) {
		return fmt.Sprintf("rbd_data.%s.%016x", img.name, idx)
	}
	if img.names[idx] == "" {
		img.names[idx] = fmt.Sprintf("rbd_data.%s.%016x", img.name, idx)
	}
	return img.names[idx]
}

func (img *Image) checkRange(off, length int64) error {
	if off < 0 || length <= 0 || off+length > img.size {
		return fmt.Errorf("core: image %s: range [%d,+%d) outside size %d", img.name, off, length, img.size)
	}
	return nil
}

// extent is one object-aligned piece of a block request.
type extent struct {
	obj     string
	objOff  int64
	length  int64
	dataOff int64 // offset of this piece within the request buffer
}

// extents appends to out the object-aligned pieces of [off, off+length).
func (img *Image) extents(out []extent, off, length int64) []extent {
	objSize := img.pool.c.cfg.ObjectSize
	done := int64(0)
	for done < length {
		abs := off + done
		idx := abs / objSize
		objOff := abs % objSize
		n := min(objSize-objOff, length-done)
		out = append(out, extent{
			obj:     img.ObjectName(idx),
			objOff:  objOff,
			length:  n,
			dataOff: done,
		})
		done += n
	}
	return out
}

// Write performs a block write. data may be nil (size-only mode, or
// zero-fill in carry mode). One client dispatch is charged per block op, as
// with one FIO request through librbd.
func (img *Image) Write(p *sim.Proc, off int64, data []byte, length int64) error {
	return img.WriteFor(p, "", off, data, length)
}

// WriteFor is Write on behalf of a tenant: when the cluster has an
// admission policy configured, the op passes through it (and may be
// rejected) before any dispatch cost is charged. An empty
// tenant is the anonymous tenant; with no policy configured the path is
// identical to Write.
func (img *Image) WriteFor(p *sim.Proc, tenant string, off int64, data []byte, length int64) error {
	if err := img.checkRange(off, length); err != nil {
		return err
	}
	if data != nil && int64(len(data)) != length {
		return fmt.Errorf("core: image write data length mismatch")
	}
	release, err := img.pool.c.qosAdmit(tenant)
	if err != nil {
		return err
	}
	if release != nil {
		defer release()
	}
	img.pool.c.clientDispatch(p)
	var buf [2]extent
	for _, ext := range img.extents(buf[:0], off, length) {
		var chunk []byte
		if data != nil {
			chunk = data[ext.dataOff : ext.dataOff+ext.length]
		}
		if err := img.pool.WriteObject(p, ext.obj, ext.objOff, chunk, ext.length); err != nil {
			return err
		}
	}
	return nil
}

// Read performs a block read. The returned bytes are nil in size-only mode.
func (img *Image) Read(p *sim.Proc, off, length int64) ([]byte, error) {
	return img.ReadFor(p, "", off, length)
}

// ReadFor is Read on behalf of a tenant, through the admission policy
// when one is configured (see WriteFor).
func (img *Image) ReadFor(p *sim.Proc, tenant string, off, length int64) ([]byte, error) {
	if err := img.checkRange(off, length); err != nil {
		return nil, err
	}
	release, err := img.pool.c.qosAdmit(tenant)
	if err != nil {
		return nil, err
	}
	if release != nil {
		defer release()
	}
	img.pool.c.clientDispatch(p)
	var out []byte
	if img.pool.c.cfg.CarryData {
		out = make([]byte, length)
	}
	var buf [2]extent
	for _, ext := range img.extents(buf[:0], off, length) {
		data, err := img.pool.ReadObject(p, ext.obj, ext.objOff, ext.length)
		if err != nil {
			return nil, err
		}
		if out != nil && data != nil {
			copy(out[ext.dataOff:ext.dataOff+ext.length], data)
		}
	}
	return out, nil
}

// Prefill marks every object of the image as written (full size), modeling
// the paper's pre-written images for read experiments without simulating the
// fill I/O.
func (img *Image) Prefill() {
	objSize := img.pool.c.cfg.ObjectSize
	for idx := int64(0); idx < img.Objects(); idx++ {
		sz := min(objSize, img.size-idx*objSize)
		img.pool.PrefillObject(img.ObjectName(idx), sz)
	}
}
