package service

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReplayWAL: whatever bytes meta.wal holds, replayWAL does not panic
// and its good offset lies within the file. Replaying only those good bytes
// applies the same records to the same index. And once openMetaWAL has
// accepted the file (dropping any torn tail), one more acknowledged put
// replays cleanly behind the rest.
func FuzzReplayWAL(f *testing.F) {
	for _, s := range []string{
		"",
		`{"op":"put","key":"a","size":5,"skey":"a@1","osds":[0,1,2],"ok":[true,true,false]}` + "\n",
		`{"op":"put","key":"a","size":5,"chunk":512,"skey":"a@2"}` + "\n" + `{"op":"del","key":"a"}` + "\n",
		`{"op":"put","key":"a","skey":"a@1"}` + "\n" + `{"op":"put","key":"b","sk`, // torn tail
		`{"op":"del","key":"a"}`, // unterminated
		`{"op":"put","key":"a"}` + "\n" + "garbage\n" + `{"op":"del","key":"a"}` + "\n", // corrupt middle
		"\n\r\n" + `{"op":"nope","key":"a"}` + "\n",
		"null\n{}\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, walFileName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		objects := map[string]*objectMeta{}
		n, good, _ := replayWAL(path, objects, 4096)
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d outside the %d-byte file", good, len(data))
		}
		prefix := filepath.Join(dir, "prefix.wal")
		if err := os.WriteFile(prefix, data[:good], 0o644); err != nil {
			t.Fatal(err)
		}
		again := map[string]*objectMeta{}
		n2, good2, err := replayWAL(prefix, again, 4096)
		if err != nil || n2 != n || good2 != good || !reflect.DeepEqual(again, objects) {
			t.Fatalf("replaying the first %d bytes: %d records to %d bytes (err %v), want the %d records the whole file applied", good, n2, good2, err, n)
		}

		w, index, _, err := openMetaWAL(dir, 1<<20, 4096)
		if err != nil {
			return // corruption before the tail: refused, not repaired
		}
		meta := &objectMeta{size: 9, chunk: 4096, skey: "new@1", osds: []int{0, 1}, ok: []bool{true, true}}
		err = w.appendPut("new", meta)
		w.Close()
		if err != nil {
			t.Fatal(err)
		}
		index["new"] = meta
		after := map[string]*objectMeta{}
		n3, good3, err := replayWAL(path, after, 4096)
		st, serr := os.Stat(path)
		if err != nil || serr != nil || good3 != st.Size() || n3 != n+1 || !reflect.DeepEqual(after, index) {
			t.Fatalf("after one more put: %d records to %d bytes (err %v), want %d records and the whole file", n3, good3, err, n+1)
		}
	})
}
