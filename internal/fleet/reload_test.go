package fleet

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"lmi/internal/bundle"
	"lmi/internal/serve"
)

var (
	fleetTestKey = ed25519.NewKeyFromSeed(bytes.Repeat([]byte{0x31}, ed25519.SeedSize))

	// Two bundle versions over the same entry key with different code:
	// v1 serves nn un-elided, v2 elided.
	fleetBundlesOnce = sync.OnceValues(func() ([2]*bundle.Bundle, error) {
		var out [2]*bundle.Bundle
		for i, elide := range []bool{false, true} {
			b, err := bundle.Build([]bundle.BuildSpec{{Workload: "nn", Elide: elide}}, 2)
			if err != nil {
				return out, err
			}
			if err := b.Seal(fleetTestKey); err != nil {
				return out, err
			}
			out[i] = b
		}
		return out, nil
	})
)

func fleetBundles(t *testing.T) (*bundle.Bundle, *bundle.Bundle) {
	t.Helper()
	bs, err := fleetBundlesOnce()
	if err != nil {
		t.Fatalf("building bundles: %v", err)
	}
	return bs[0].Clone(), bs[1].Clone()
}

func bundleConfig() Config {
	cfg := testConfig(nil)
	cfg.BundlePub = fleetTestKey.Public().(ed25519.PublicKey)
	return cfg
}

// TestFleetSoakReloadCampaign: the default soak scripts two genuine
// reloads plus one tampered reload per tamper kind; every tampered
// bundle is rejected with its pinned typed reason before any lane
// executes from it, rejections never move the serving digest, and
// every bundle-served result carries a good version's digest — no torn
// tables. The campaign appears in the decision log via per-request
// bundle digests.
func TestFleetSoakReloadCampaign(t *testing.T) {
	rep, out, log := runSoak(t, SoakConfig{Seed: 18, Requests: 1200, Shards: 4})
	if len(rep.BundleDigests) != 2 || rep.BundleDigests[0] == rep.BundleDigests[1] {
		t.Fatalf("bundle versions = %v, want two distinct digests", rep.BundleDigests)
	}
	genuine, rejected := 0, map[string]ReloadRecord{}
	for _, rr := range rep.Reloads {
		if rr.Kind == "genuine" {
			genuine++
			continue
		}
		rejected[rr.Kind] = rr
	}
	if genuine != 2 {
		t.Fatalf("%d genuine reloads, want 2", genuine)
	}
	for _, kind := range bundle.TamperKinds() {
		rr, ok := rejected[kind]
		if !ok {
			t.Fatalf("tamper kind %s never attempted", kind)
		}
		if rr.Status != "rejected" || rr.Reason != string(bundle.ExpectedTamperRejection(kind)) {
			t.Fatalf("tamper %s: status=%s reason=%s, want rejected/%s",
				kind, rr.Status, rr.Reason, bundle.ExpectedTamperRejection(kind))
		}
	}
	served := map[string]int{}
	for _, res := range rep.Results {
		if res.BundleDigest != "" {
			served[res.BundleDigest]++
		}
	}
	if len(served) != 2 {
		t.Fatalf("results served from %d bundle versions, want both: %v", len(served), served)
	}
	if !strings.Contains(log, `"bundle_digest":"`+rep.BundleDigests[0][:16]) &&
		!strings.Contains(log, `"bundle_digest":"`+rep.BundleDigests[1][:16]) {
		t.Fatal("decision log carries no bundle digest")
	}
	if !strings.Contains(out, "reload events") {
		t.Fatal("report renders no reload section")
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("robustness violations:\n%s", v)
	}
}

// TestFleetSoakBundlesDisabled: with the campaign off the soak is the
// pure chaos replay — no bench requests, no digests, no reloads.
func TestFleetSoakBundlesDisabled(t *testing.T) {
	rep, out, _ := runSoak(t, SoakConfig{Seed: 7, Requests: 300, Shards: 2, DisableBundles: true})
	if len(rep.BundleDigests) != 0 || len(rep.Reloads) != 0 {
		t.Fatalf("disabled campaign produced digests=%v reloads=%v", rep.BundleDigests, rep.Reloads)
	}
	for i, res := range rep.Results {
		if res.Req.Workload != "" || res.BundleDigest != "" {
			t.Fatalf("request %d: bench/bundle leakage with bundles disabled: %+v", i, res.Req)
		}
	}
	if strings.Contains(out, "reload events") {
		t.Fatal("disabled campaign still renders a reload section")
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("robustness violations:\n%s", v)
	}
}

// TestRejoinCannotResurrectOldBundle: a reload that lands while a
// shard is dead installs the new table on the dead shard too, so its
// later Rejoin serves the reload epoch — never the programs from
// before it. This is the rejoin/reload race the coordinator's
// all-shards swap exists to close.
func TestRejoinCannotResurrectOldBundle(t *testing.T) {
	v1, v2 := fleetBundles(t)
	c, err := NewCoordinator(bundleConfig())
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer c.Shutdown(context.Background())

	if err := c.Reload(v1); err != nil {
		t.Fatalf("reload v1: %v", err)
	}
	c.Kill(0)
	if err := c.Reload(v2); err != nil {
		t.Fatalf("reload v2 with shard 0 dead: %v", err)
	}
	c.Rejoin(0)

	if got := c.shards[0].exec.BundleDigest(); got != v2.Digest {
		t.Fatalf("rejoined shard serves bundle %s, want the reload epoch %s", got, v2.Digest)
	}
	// Every shard answers bench requests from the post-reload epoch.
	for seed := uint64(1); seed <= 8; seed++ {
		res, err := c.Submit(context.Background(),
			serve.Request{Workload: "nn", Mechanism: "lmi", Seed: seed})
		if err != nil || res.Status != serve.StatusOK {
			t.Fatalf("seed %d: status %s err %v", seed, res.Status, err)
		}
		if res.BundleDigest != v2.Digest {
			t.Fatalf("seed %d served from bundle %q, want %s — pre-reload program resurrected",
				seed, res.BundleDigest, v2.Digest)
		}
	}
}

// TestCoordinatorReloadRejectionKeepsServing: a refused reload is the
// typed rejection and every shard keeps the prior table — the genuine
// bundle before a tampered one, or none at all when no key is trusted
// (there is no trust-on-first-use).
func TestCoordinatorReloadRejectionKeepsServing(t *testing.T) {
	v1, v2 := fleetBundles(t)
	wrongKey := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{0x77}, ed25519.SeedSize))
	tampered, err := bundle.Tamper(bundle.TamperWrongKey, v2, v1, fleetTestKey, wrongKey)
	if err != nil {
		t.Fatalf("tamper: %v", err)
	}
	untrusted := bundleConfig()
	untrusted.Shards, untrusted.BundlePub = 1, nil
	for _, tc := range []struct {
		name    string
		cfg     Config
		reloads []*bundle.Bundle // all but the last must install
		serving string           // every shard's digest afterwards
	}{
		{"tampered after genuine", bundleConfig(), []*bundle.Bundle{v1, tampered}, v1.Digest},
		{"no trusted key", untrusted, []*bundle.Bundle{v1}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCoordinator(tc.cfg)
			if err != nil {
				t.Fatalf("NewCoordinator: %v", err)
			}
			defer c.Shutdown(context.Background())
			last := len(tc.reloads) - 1
			for i, b := range tc.reloads[:last] {
				if err := c.Reload(b); err != nil {
					t.Fatalf("reload %d: %v", i, err)
				}
			}
			if err := c.Reload(tc.reloads[last]); bundle.RejectionReason(err) != bundle.ReasonWrongKey {
				t.Fatalf("last reload: %v, want wrong-key rejection", err)
			}
			for i, sh := range c.shards {
				if got := sh.exec.BundleDigest(); got != tc.serving {
					t.Fatalf("shard %d serves %q after rejected reload, want %q", i, got, tc.serving)
				}
			}
			if got := c.BundleDigest(); got != tc.serving {
				t.Fatalf("fleet serves %q after rejected reload, want %q", got, tc.serving)
			}
			if n, status := c.ReloadStats(); n != uint64(len(tc.reloads)) || !strings.Contains(status, string(bundle.ReasonWrongKey)) {
				t.Fatalf("reload stats = %d %q", n, status)
			}
		})
	}
}

// TestCoordinatorReloadHTTP: the /reload, /stats, and /run bundle
// lifecycle per fleet shape. Before any attempt /stats omits every
// bundle field and results carry no digest; a verified POST /reload
// swaps the table and stamps bundle-served results with its digest
// (an unbundled workload still serves, without one); a tampered bundle
// answers 422 with the typed reason, is counted, and leaves the prior
// digest serving.
func TestCoordinatorReloadHTTP(t *testing.T) {
	v1, _ := fleetBundles(t)
	one := bundleConfig()
	one.Shards = 1
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"2 shards", bundleConfig()},
		{"1 shard", one},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCoordinator(tc.cfg)
			if err != nil {
				t.Fatalf("NewCoordinator: %v", err)
			}
			defer c.Shutdown(context.Background())
			srv := httptest.NewServer(c.Handler())
			defer srv.Close()

			stats := func() map[string]json.RawMessage {
				t.Helper()
				resp, err := http.Get(srv.URL + "/stats")
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var m map[string]json.RawMessage
				if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
					t.Fatalf("decoding /stats: %v", err)
				}
				return m
			}
			run := func(body, wantBundle string) {
				t.Helper()
				if code, rj := postRun(t, srv.URL, body); code != http.StatusOK || rj.Bundle != wantBundle {
					t.Fatalf("POST /run %s = %d bundle %q, want 200 bundle %q", body, code, rj.Bundle, wantBundle)
				}
			}
			const nn, needle = `{"workload":"nn","mechanism":"lmi","seed":1}`, `{"workload":"needle","mechanism":"lmi","seed":1}`

			st := stats()
			for _, k := range []string{"bundle_digest", "reload_count", "last_reload_status"} {
				if _, ok := st[k]; ok {
					t.Fatalf("/stats exposes %s before any reload", k)
				}
			}
			run(nn, "")

			var buf bytes.Buffer
			if err := v1.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(srv.URL+"/reload", "application/json", &buf)
			if err != nil {
				t.Fatal(err)
			}
			var ok struct {
				Status  string `json:"status"`
				Serving string `json:"serving_bundle_digest"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&ok); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || ok.Status != "ok" || ok.Serving != v1.Digest {
				t.Fatalf("POST /reload = %d %+v, want ok serving %s", resp.StatusCode, ok, v1.Digest)
			}
			run(nn, v1.Digest)
			run(needle, "")
			st = stats()
			if got := string(st["bundle_digest"]); got != `"`+v1.Digest+`"` {
				t.Fatalf("/stats bundle_digest = %s, want %q", got, v1.Digest)
			}
			if got := string(st["reload_count"]); got != "1" {
				t.Fatalf("/stats reload_count = %s, want 1", got)
			}
			if got := string(st["last_reload_status"]); got != `"ok"` {
				t.Fatalf("/stats last_reload_status = %s, want ok", got)
			}

			// Tampered over the wire: flip a code byte without resealing.
			tb := v1.Clone()
			w := []byte(tb.Entries[0].Code[0])
			if w[0] == '0' {
				w[0] = '1'
			} else {
				w[0] = '0'
			}
			tb.Entries[0].Code[0] = string(w)
			buf.Reset()
			if err := tb.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			resp, err = http.Post(srv.URL+"/reload", "application/json", &buf)
			if err != nil {
				t.Fatal(err)
			}
			var rej struct {
				Status  string `json:"status"`
				Reason  string `json:"reason"`
				Error   string `json:"error"`
				Serving string `json:"serving_bundle_digest"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnprocessableEntity || rej.Status != "rejected" ||
				rej.Reason != string(bundle.ReasonDigestMismatch) || !strings.Contains(rej.Error, "bundle rejected") {
				t.Fatalf("tampered POST /reload = %d %+v", resp.StatusCode, rej)
			}
			if rej.Serving != v1.Digest || c.BundleDigest() != v1.Digest {
				t.Fatalf("rejection moved the serving digest: %q, want %s", rej.Serving, v1.Digest)
			}
			st = stats()
			if got := string(st["reload_count"]); got != "2" {
				t.Fatalf("/stats reload_count = %s, want 2", got)
			}
			if !strings.Contains(string(st["last_reload_status"]), string(bundle.ReasonDigestMismatch)) {
				t.Fatalf("/stats last_reload_status lost the rejection: %s", st["last_reload_status"])
			}
			run(nn, v1.Digest)
		})
	}
}
