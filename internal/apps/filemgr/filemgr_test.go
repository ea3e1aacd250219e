package filemgr

import (
	"strings"
	"testing"

	"resin/internal/httpd"
)

func TestFileThingieTraversal(t *testing.T) {
	escaped, _ := AttackFileThingieTraversal(false)
	if !escaped {
		t.Fatal("traversal must succeed without the assertion")
	}
	escaped, blockErr := AttackFileThingieTraversal(true)
	if escaped {
		t.Fatal("assertion failed to confine the write")
	}
	if blockErr == nil {
		t.Fatal("the traversal should be blocked with an error")
	}
}

func TestPHPNavigatorTraversal(t *testing.T) {
	escaped, _ := AttackPHPNavigatorTraversal(false)
	if !escaped {
		t.Fatal("move traversal must succeed without the assertion")
	}
	escaped, blockErr := AttackPHPNavigatorTraversal(true)
	if escaped || blockErr == nil {
		t.Fatalf("assertion should block the move: escaped=%v err=%v", escaped, blockErr)
	}
}

func TestCrossHomeWrite(t *testing.T) {
	escaped, _ := AttackCrossHomeWrite(false)
	if !escaped {
		t.Fatal("cross-home write must succeed without the assertion")
	}
	escaped, blockErr := AttackCrossHomeWrite(true)
	if escaped || blockErr == nil {
		t.Fatalf("per-home filter should block: escaped=%v err=%v", escaped, blockErr)
	}
}

func TestLegitimateOperationsUnbroken(t *testing.T) {
	for _, on := range []bool{false, true} {
		for _, v := range []Variant{FileThingie, PHPNavigator} {
			ok, err := LegitimateUpload(v, on)
			if err != nil || !ok {
				t.Errorf("%s assertions=%v: upload ok=%v err=%v", v, on, ok, err)
			}
		}
		ok, err := LegitimateMove(on)
		if err != nil || !ok {
			t.Errorf("assertions=%v: move ok=%v err=%v", on, ok, err)
		}
	}
}

func TestOwnValidationCatchesObviousCases(t *testing.T) {
	a := newInstance(FileThingie, false)
	s := a.Server.NewSession("alice")
	for _, name := range []string{"/etc/passwd", "../outside.txt"} {
		resp, err := a.Server.Do("GET", "/upload", map[string]string{"name": name, "content": "x"}, s)
		if err == nil || resp.Status != 400 {
			t.Errorf("name %q should be rejected by the app's own check", name)
		}
	}
}

func TestViewConfinedToHome(t *testing.T) {
	a := newInstance(FileThingie, true)
	s := a.Server.NewSession("alice")
	resp, err := a.Server.Do("GET", "/view", map[string]string{"name": "../../../config/app.conf"}, s)
	if err == nil || resp.Status != 403 {
		t.Errorf("view traversal should be denied: %v %d", err, resp.Status)
	}
	if strings.Contains(resp.RawBody(), "topsecret") {
		t.Error("config leaked")
	}
}

func TestListHome(t *testing.T) {
	a := newInstance(FileThingie, true)
	s := a.Server.NewSession("alice")
	a.Server.Do("GET", "/upload", map[string]string{"name": "f.txt", "content": "x"}, s)
	resp, err := a.Server.Do("GET", "/list", nil, s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.RawBody(), "f.txt") {
		t.Errorf("list = %q", resp.RawBody())
	}
}

func TestVariantString(t *testing.T) {
	if FileThingie.String() != "File Thingie" || PHPNavigator.String() != "PHP Navigator" {
		t.Error("variant names wrong")
	}
	if newInstance(PHPNavigator, false).Variant() != PHPNavigator {
		t.Error("variant accessor wrong")
	}
}

// TestOverwriteExistingFile: alice's upload of notes/todo.txt may be
// overwritten by alice, through the same upload, and by no one else.
// Mallory's traversal onto the existing file, and a new file planted in
// alice's notes/ directory, both land without the assertion; with it,
// the file's HomeDirFilter vetoes the overwrite (FilterWrite) and the
// directory's the create (FilterDirOp), and the file keeps alice's text.
func TestOverwriteExistingFile(t *testing.T) {
	for _, on := range []bool{false, true} {
		a := newInstance(FileThingie, on)
		alice := a.Server.NewSession("alice")
		a.AddUser("mallory")
		mallory := a.Server.NewSession("mallory")
		upload := func(s *httpd.Session, name, content string) error {
			_, err := a.Server.Do("GET", "/upload", map[string]string{"name": name, "content": content}, s)
			return err
		}
		file := home("alice") + "/notes/todo.txt"
		read := func() string {
			data, err := a.FS.ReadFile(file, nil)
			if err != nil {
				t.Fatal(err)
			}
			return data.Raw()
		}
		for _, content := range []string{"ship it", "ship it today"} {
			if err := upload(alice, "notes/todo.txt", content); err != nil || read() != content {
				t.Fatalf("assertions=%v: alice writing her own file: %v, file reads %q", on, err, read())
			}
		}
		err := upload(mallory, "x/../../alice/notes/todo.txt", "owned")
		if got := read(); on != (got == "ship it today") || on != (err != nil) {
			t.Errorf("assertions=%v: mallory's overwrite: %v, file reads %q", on, err, got)
		}
		err = upload(mallory, "x/../../alice/notes/planted.txt", "gotcha")
		if planted := a.FS.Exists(home("alice") + "/notes/planted.txt"); on == planted || on != (err != nil) {
			t.Errorf("assertions=%v: mallory's create in alice's subdirectory: %v, planted %v", on, err, planted)
		}
	}
}
