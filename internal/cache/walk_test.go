package cache

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"afterimage/internal/mem"
)

// leaves calls fn with the path and a settable value of every leaf under
// v: scalars, element 0 of each non-empty slice, empty slices and nil
// pointers; non-nil pointers are followed. Unexported fields are reached
// through unsafe.
func leaves(v reflect.Value, path string, fn func(string, reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
			leaves(f, strings.TrimPrefix(path+"."+v.Type().Field(i).Name, "."), fn)
		}
	case reflect.Pointer:
		if v.IsNil() {
			fn(path, v)
		} else {
			leaves(v.Elem(), path, fn)
		}
	case reflect.Slice:
		if v.Len() == 0 {
			fn(path, v)
		} else {
			leaves(v.Index(0), path+"[0]", fn)
		}
	default:
		fn(path, v)
	}
}

// bump changes a leaf: flips a bool, increments a number, grows an empty
// slice by one zero (or freshly allocated) element.
func bump(t *testing.T, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Slice:
		e := reflect.Zero(v.Type().Elem())
		if v.Type().Elem().Kind() == reflect.Pointer {
			e = reflect.New(v.Type().Elem().Elem())
		}
		v.Set(reflect.Append(v, e))
	default:
		t.Fatalf("%s: no mutation for kind %v; classify the field", path, v.Kind())
	}
}

// checkWalkCoverage mutates, on a fresh fork of parent, every leaf that is
// not under a key of attached (per-machine attachments and immutable
// geometry, by path prefix). Each mutation must move the fork's digest and
// leave the parent's alone: a field nobody walks, or one the fork shares
// with its parent, fails. Every attached key must still name a field.
func checkWalkCoverage[T any](t *testing.T, parent *T, fork func(*T) *T, hash func(*T) uint64, attached []string) {
	t.Helper()
	under := func(p, k string) bool {
		return p == k || strings.HasPrefix(p, k+".") || strings.HasPrefix(p, k+"[")
	}
	used := map[string]bool{}
	var paths []string
	leaves(reflect.ValueOf(parent).Elem(), "", func(p string, _ reflect.Value) {
		for _, k := range attached {
			if under(p, k) {
				used[k] = true
				return
			}
		}
		paths = append(paths, p)
	})
	for _, k := range attached {
		if !used[k] {
			t.Errorf("attached field %s no longer exists", k)
		}
	}
	want := hash(parent)
	for _, p := range paths {
		f := fork(parent)
		leaves(reflect.ValueOf(f).Elem(), "", func(q string, v reflect.Value) {
			if q == p {
				bump(t, p, v)
			}
		})
		if hash(f) == want {
			t.Errorf("%s: mutating it leaves StateHash unchanged; walk it or classify it", p)
		}
		if hash(parent) != want {
			t.Fatalf("%s: mutating it on a fork changed the parent", p)
		}
	}
}

// TestCacheWalkCoverage: under every replacement policy, every Cache and
// Policies field is either walked (so forked and hashed) or on the
// attachment/geometry list. The fills touch the even sets only: every
// per-set array is bumped at element 0, inside touched set 0, and bumping
// touched[0] moves set 0's mark onto untouched set 1.
func TestCacheWalkCoverage(t *testing.T) {
	attached := []string{
		"cfg", "nslices", "nsets", "ways", "setsPow2", "setMask", "setMagic", "linePow2", "lineShift",
		"predLine", "predIdx", "predG", "predOK",
		"pol.kind", "pol.ways", "pol.tsetM", "pol.tclrM", "pol.tnodes",
		"pol.srcs[0].seed", "pol.srcs[0].src", // the generator replays from seed to draws
	}
	for _, k := range allPolicies {
		t.Run(k.String(), func(t *testing.T) {
			c := MustNew(small(k))
			for i := uint64(0); i < 40; i++ {
				c.Fill(mem.PAddr(i * 0x80))
			}
			if c.touched[0]&3 != 1 {
				t.Fatalf("touched[0] = %#x, want set 0 touched and set 1 not", c.touched[0])
			}
			var present []string
			for _, a := range attached {
				if k == RandomPolicy || !strings.HasPrefix(a, "pol.srcs") {
					present = append(present, a)
				}
			}
			checkWalkCoverage(t, c, (*Cache).Fork, (*Cache).StateHash, present)
		})
	}
}
