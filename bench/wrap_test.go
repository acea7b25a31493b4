package main

import (
	"context"
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"io"
	"testing"

	"github.com/defragdht/d2/internal/fs"
	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/store"
	"github.com/defragdht/d2/internal/store/disk"
	"github.com/defragdht/d2/internal/transport"
)

// script runs a fixed sequence of file-system and block operations,
// successes and failures alike, and logs each result and error.
func script(ctx context.Context, r *ring) []string {
	var log []string
	note := func(op string, v any, err error) {
		log = append(log, fmt.Sprintf("%s => %v | %v", op, v, err))
	}
	sum := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

	priv := publisherKey(42)
	w, err := fs.Create(ctx, r.svc, "script", priv, fs.Options{})
	note("create", nil, err)
	if err != nil {
		return log
	}
	note("mkdir /a", nil, w.Mkdir(ctx, "/a"))
	note("mkdir /a again", nil, w.Mkdir(ctx, "/a"))
	note("write small", nil, w.WriteFile(ctx, "/a/small", content(1, 0, 0, 100)))
	note("write big", nil, w.WriteFile(ctx, "/a/big", content(1, 1, 0, 100*kb)))
	note("sync", nil, w.Sync(ctx))

	rd, err := fs.Open(ctx, r.svc, "script", priv.Public().(ed25519.PublicKey), nil, fs.Options{})
	note("open", nil, err)
	if err != nil {
		return log
	}
	infos, err := rd.ReadDir(ctx, "/a")
	note("readdir", infos, err)
	st, err := rd.Stat(ctx, "/a/big")
	note("stat", st, err)
	data, err := rd.ReadFile(ctx, "/a/big")
	note("readfile", sum(data), err)
	rc, err := rd.ReadStream(ctx, "/a/big")
	if err == nil {
		data, err = io.ReadAll(rc)
		_ = rc.Close()
	}
	note("readstream", sum(data), err)
	_, err = rd.ReadFile(ctx, "/a/missing")
	note("readfile missing", nil, err)
	note("write read-only", nil, rd.WriteFile(ctx, "/a/x", []byte("x")))
	note("remove non-empty", nil, w.Remove(ctx, "/a"))
	note("rename", nil, w.Rename(ctx, "/a/small", "/a/renamed"))
	note("sync", nil, w.Sync(ctx))
	rd, err = fs.Open(ctx, r.svc, "script", priv.Public().(ed25519.PublicKey), nil, fs.Options{})
	if err == nil {
		infos, err = rd.ReadDir(ctx, "/a")
	}
	note("readdir after rename", infos, err)

	vol := keys.NewVolumeID([]byte("blocks"), "blocks")
	k1, k2 := keys.Encode(vol, keys.PathCode{}, 1, 0), keys.Encode(vol, keys.PathCode{}, 2, 0)
	_, err = r.svc.Get(ctx, k1)
	note("get absent", nil, err)
	note("put", nil, r.svc.Put(ctx, k1, []byte("block one")))
	got, err := r.svc.Get(ctx, k1)
	note("get", string(got), err)
	many, err := r.svc.GetMany(ctx, []keys.Key{k1, k2})
	note("getmany", fmt.Sprintf("%d %q", len(many), many[k1]), err)
	seg, err := r.svc.GetSegment(ctx, []keys.Key{k1})
	note("getsegment", fmt.Sprintf("%d %q", len(seg), seg[k1]), err)
	note("remove", nil, r.svc.Remove(ctx, k1))
	return log
}

func runScript(t *testing.T, rec *recorder) []string {
	t.Helper()
	ctx := context.Background()
	r, err := startRing(ctx, t.TempDir(), disk.FsyncNever, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	return script(ctx, r)
}

func TestWrappersChangeNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("starts two 6-node rings")
	}
	plain := runScript(t, nil)
	rec := newRecorder()
	wrapped := runScript(t, rec)
	if len(plain) != len(wrapped) {
		t.Fatalf("plain ring ran %d steps, wrapped ring %d", len(plain), len(wrapped))
	}
	for i := range plain {
		if plain[i] != wrapped[i] {
			t.Errorf("step %d differs:\n  plain:   %s\n  wrapped: %s", i, plain[i], wrapped[i])
		}
	}
	kinds := map[spanKind]int{}
	for _, s := range rec.take() {
		kinds[s.Kind]++
	}
	for _, k := range []spanKind{kindSvc, kindCall, kindHandle, kindStore} {
		if kinds[k] == 0 {
			t.Errorf("wrapped ring recorded no %s spans", kindLayer[k])
		}
	}
}

func TestEngineWrapperForwardsIdentity(t *testing.T) {
	st, err := disk.Open(t.TempDir(), disk.Options{Fsync: disk.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := newRecorder()
	is, ok := rec.wrapEngine(st, 0).(store.IdentityStore)
	if !ok {
		t.Fatal("wrapped disk engine hides store.IdentityStore")
	}
	id := keys.Encode(keys.NewVolumeID([]byte("id"), "id"), keys.PathCode{}, 0, 0)
	if err := is.SaveIdentity(id); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.LoadIdentity(); !ok || !got.Equal(id) {
		t.Errorf("identity saved through the wrapper did not reach the engine")
	}
	if _, ok := rec.wrapEngine(store.New(), 0).(store.IdentityStore); ok {
		t.Error("wrapped memory engine claims store.IdentityStore it lacks")
	}
}

type tracerTransport struct {
	transport.Transport
	got *tracing.Tracer
}

func (f *tracerTransport) UseTracer(t *tracing.Tracer) { f.got = t }

func TestTransportWrapperForwardsTracer(t *testing.T) {
	inner := &tracerTransport{}
	wrapped := newRecorder().wrapTransport(inner, 0)
	ut, ok := wrapped.(interface{ UseTracer(*tracing.Tracer) })
	if !ok {
		t.Fatal("wrapped transport hides UseTracer")
	}
	tr := tracing.New(tracing.Config{Node: "n"})
	ut.UseTracer(tr)
	if inner.got != tr {
		t.Error("UseTracer did not reach the wrapped transport")
	}
}

func TestNilRecorderInstallsNoWrapper(t *testing.T) {
	var rec *recorder
	st := store.New()
	if rec.wrapEngine(st, 0) != store.Engine(st) {
		t.Error("untraced engine was wrapped")
	}
	inner := &tracerTransport{}
	if rec.wrapTransport(inner, 0) != transport.Transport(inner) {
		t.Error("untraced transport was wrapped")
	}
}
