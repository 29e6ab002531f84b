package ftrace

import "testing"

func TestFireDispatchesToMatchingHook(t *testing.T) {
	var r Registry
	var got []Event
	r.Register("do_mount", func(e Event) { got = append(got, e) })
	r.Fire(Event{Fn: "do_mount", ContainerID: "c1"})
	r.Fire(Event{Fn: "cgroup_attach_task", ContainerID: "c1"})
	if len(got) != 1 {
		t.Fatalf("hook fired %d times, want 1", len(got))
	}
	if got[0].Fn != "do_mount" || got[0].ContainerID != "c1" {
		t.Fatalf("event = %+v", got[0])
	}
}

func TestGlobalHookSeesEverything(t *testing.T) {
	var r Registry
	n := 0
	r.Register("", func(Event) { n++ })
	r.Fire(Event{Fn: "a"})
	r.Fire(Event{Fn: "b"})
	if n != 2 {
		t.Fatalf("global hook fired %d times, want 2", n)
	}
}

func TestMultipleHooksSameFunction(t *testing.T) {
	var r Registry
	n := 0
	r.Register("sys_setns", func(Event) { n++ })
	r.Register("sys_setns", func(Event) { n++ })
	r.Fire(Event{Fn: "sys_setns"})
	if n != 2 {
		t.Fatalf("fired %d hooks, want 2", n)
	}
}

func TestUnregister(t *testing.T) {
	var r Registry
	n := 0
	id := r.Register("f", func(Event) { n++ })
	r.Fire(Event{Fn: "f"})
	r.Unregister(id)
	r.Fire(Event{Fn: "f"})
	if n != 1 {
		t.Fatalf("hook fired %d times, want 1 (unregistered after first)", n)
	}
	if len(r.fnOf) != 0 {
		t.Fatalf("%d hooks registered after unregister, want 0", len(r.fnOf))
	}
}

func TestUnregisterGlobal(t *testing.T) {
	var r Registry
	n := 0
	id := r.Register("", func(Event) { n++ })
	r.Unregister(id)
	r.Fire(Event{Fn: "x"})
	if n != 0 {
		t.Fatal("global hook fired after unregister")
	}
}

func TestUnregisterUnknownIDIgnored(t *testing.T) {
	var r Registry
	r.Unregister(HookID(99)) // must not panic on empty registry
	r.Register("f", func(Event) {})
	r.Unregister(HookID(99))
}

func TestFireOnEmptyRegistry(t *testing.T) {
	var r Registry
	r.Fire(Event{Fn: "anything"}) // must not panic
}

func TestRegisterNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register(nil) did not panic")
		}
	}()
	var r Registry
	r.Register("f", nil)
}
