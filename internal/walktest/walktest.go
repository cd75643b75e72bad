// Package walktest is the reflect-based check behind every state walk's
// WalkCoverage test: a field is either walked, so a fork copies it and the
// digest folds it, or listed with the reason the walk leaves it out.
// Import it from _test.go files only.
package walktest

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// Attached maps each field a walk leaves out (a per-machine attachment,
// immutable geometry, or a view rebuilt from walked state) to a one-line
// reason. A path chains field names with dots and writes a slice's first
// element as [0], as in "l1.ways" or "pol.srcs[0].seed"; nothing under a
// listed path is visited.
type Attached map[string]string

// leaves calls fn with the path and a settable value of every leaf under
// v that stop does not prune: scalars, element 0 of each non-empty slice,
// empty slices and nil pointers; non-nil pointers are followed.
// Unexported fields are reached through unsafe.
func leaves(v reflect.Value, path string, stop func(string) bool, fn func(string, reflect.Value)) {
	switch {
	case stop(path):
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
			leaves(f, strings.TrimPrefix(path+"."+v.Type().Field(i).Name, "."), stop, fn)
		}
	case v.Kind() == reflect.Pointer && !v.IsNil():
		leaves(v.Elem(), path, stop, fn)
	case v.Kind() == reflect.Slice && v.Len() > 0:
		leaves(v.Index(0), path+"[0]", stop, fn)
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

// Check mutates, on a fresh fork of parent, every leaf not under a key of
// attached. Each mutation must move the fork's digest and leave the
// parent's alone: a field nobody walks, or one the fork shares with its
// parent, fails. Every attached key must still name a field and give a
// reason.
func Check[T any](t *testing.T, parent *T, fork func(*T) *T, hash func(*T) uint64, attached Attached) {
	t.Helper()
	used := map[string]bool{}
	stop := func(p string) bool {
		_, ok := attached[p]
		used[p] = used[p] || ok
		return ok
	}
	var paths []string
	leaves(reflect.ValueOf(parent).Elem(), "", stop, func(p string, _ reflect.Value) { paths = append(paths, p) })
	for k, reason := range attached {
		if !used[k] || reason == "" {
			t.Errorf("attached field %s: no longer exists or gives no reason", k)
		}
	}
	want := hash(parent)
	for _, p := range paths {
		f := fork(parent)
		leaves(reflect.ValueOf(f).Elem(), "", stop, func(q string, v reflect.Value) {
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
