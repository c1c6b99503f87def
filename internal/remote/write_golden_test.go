package remote

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"parj/internal/testutil"
)

// goldenWriteBatch is the batch testdata/write_body.json encodes: a seq,
// two inserts — one literal in N-Triples escaped form (an escaped quote and
// an escaped newline), one carrying a raw quote-delimited newline — and one
// delete of a base triple.
var goldenWriteBatch = WriteRequest{
	Seq: 1,
	Inserts: []Triple{
		{S: "<http://ex.org/a>", P: "<http://ex.org/says>", O: `"she said \"hi\"\nthen left"@en`},
		{S: "<http://ex.org/b>", P: "<http://ex.org/says>", O: "\"two\nlines\""},
	},
	Deletes: []Triple{{S: "<a>", P: "<q>", O: "<c>"}},
}

// TestWriteBodyGolden: the /write body is a wire format. The batch must
// marshal to exactly the committed bytes (generated once and never
// regenerated by a change that keeps the wire), and a node must decode and
// apply those bytes: both inserts visible, the delete gone.
func TestWriteBodyGolden(t *testing.T) {
	defer testutil.LeakCheck(t)()
	got, err := json.Marshal(&goldenWriteBatch)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "write_body.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("/write body changed:\n got %s\nwant %s", got, want)
	}

	n := NewNode(testStore(), nil, NodeOptions{})
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+WritePath, "application/json", bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var wr WriteResponse
	err = json.NewDecoder(resp.Body).Decode(&wr)
	resp.Body.Close()
	http.DefaultClient.CloseIdleConnections()
	if err != nil || resp.StatusCode != http.StatusOK || wr.Seq != 1 {
		t.Fatalf("posting the golden body: status %d, %+v, %v", resp.StatusCode, wr, err)
	}
	st := n.Store()
	has := func(tr Triple) bool {
		s, p, o := st.Resources.Lookup(tr.S), st.Predicates.Lookup(tr.P), st.Resources.Lookup(tr.O)
		return s != 0 && p != 0 && o != 0 && st.HasTriple(s, p, o)
	}
	for _, tr := range goldenWriteBatch.Inserts {
		if !has(tr) {
			t.Errorf("inserted %v missing after the golden write", tr)
		}
	}
	if tr := goldenWriteBatch.Deletes[0]; has(tr) {
		t.Errorf("deleted %v still present after the golden write", tr)
	}
}
