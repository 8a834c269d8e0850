//! Runtime values.
//!
//! Values are type-erased at run time; the static verifier guarantees the
//! interpreter never sees an ill-typed operand, so the `match` arms that
//! extract payloads treat a mismatch as an internal error, not a security
//! boundary (mirroring how a Caml bytecode interpreter trusts its
//! compiler/linker).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;

use crate::types::Ty;

/// Which loaded module instance a function reference points into.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct InstanceId(pub usize);

/// A callable value: a function in a loaded module, or a host function.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum FuncVal {
    /// Function `func` of loaded module instance `instance`.
    Vm {
        /// The loaded module.
        instance: InstanceId,
        /// Function index within it.
        func: u32,
    },
    /// A host function slot.
    Host {
        /// Host module index within the environment.
        module: u16,
        /// Item index within the host module.
        item: u16,
    },
}

/// A hashable key (the subset of values allowed as table keys and `Eq`
/// operands — see [`Ty::hashable`]).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Key {
    /// Unit key.
    Unit,
    /// Boolean key.
    Bool(bool),
    /// Integer key.
    Int(i64),
    /// String key.
    Str(Vec<u8>),
}

/// A runtime value.
#[derive(Clone, Debug)]
pub enum Value {
    /// The unit value.
    Unit,
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer.
    Int(i64),
    /// An immutable byte string. `Bytes` is the buffer the simulator's
    /// `FrameBuf` wraps, so a received frame enters the VM, and leaves it
    /// through a host call, as a refcount bump of the same storage.
    Str(Bytes),
    /// A tuple.
    Tuple(Rc<Vec<Value>>),
    /// A function reference.
    Func(FuncVal),
    /// A mutable hash table.
    Table(Rc<RefCell<HashMap<Key, Value>>>),
    /// An opaque handle of an abstract named type (e.g. an `iport`).
    /// Only host functions mint these.
    Handle {
        /// The nominal type tag (host functions mint handles, and every
        /// tag they use is a literal).
        tag: &'static str,
        /// Host-assigned identity.
        id: u64,
    },
}

impl Value {
    /// Build a string value.
    pub fn str(bytes: impl Into<Vec<u8>>) -> Value {
        Value::Str(Bytes::from(bytes.into()))
    }

    /// Build an empty table.
    pub fn new_table() -> Value {
        Value::Table(Rc::new(RefCell::new(HashMap::new())))
    }

    /// Build a handle.
    pub fn handle(tag: &'static str, id: u64) -> Value {
        Value::Handle { tag, id }
    }

    /// Convert to a table key; `None` if the value is not hashable.
    pub fn to_key(&self) -> Option<Key> {
        match self {
            Value::Unit => Some(Key::Unit),
            Value::Bool(b) => Some(Key::Bool(*b)),
            Value::Int(i) => Some(Key::Int(*i)),
            Value::Str(s) => Some(Key::Str(s.to_vec())),
            _ => None,
        }
    }

    /// Structural equality on the hashable subset, compared in place (no
    /// [`Key`] is built); `None` for non-comparable values (the verifier
    /// prevents reaching that case via `Eq`/`Ne` instructions). Agrees
    /// with `to_key()` equality, values of different variants included.
    pub fn hash_eq(&self, other: &Value) -> Option<bool> {
        Some(match (self, other) {
            (Value::Unit, Value::Unit) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            _ if self.is_hashable() && other.is_hashable() => false,
            _ => return None,
        })
    }

    fn is_hashable(&self) -> bool {
        matches!(
            self,
            Value::Unit | Value::Bool(_) | Value::Int(_) | Value::Str(_)
        )
    }

    /// Whether this value inhabits `ty`. Used at host-call boundaries and
    /// in tests; within verified bytecode it always holds.
    pub fn matches(&self, ty: &Ty) -> bool {
        match (self, ty) {
            (Value::Unit, Ty::Unit) => true,
            (Value::Bool(_), Ty::Bool) => true,
            (Value::Int(_), Ty::Int) => true,
            (Value::Str(_), Ty::Str) => true,
            (Value::Tuple(items), Ty::Tuple(tys)) => {
                items.len() == tys.len() && items.iter().zip(tys).all(|(v, t)| v.matches(t))
            }
            (Value::Func(_), Ty::Func(_)) => true, // arity checked at link/verify
            (Value::Table(_), Ty::Table(_, _)) => true,
            (Value::Handle { tag, .. }, Ty::Named(want)) => *tag == want.as_str(),
            _ => false,
        }
    }

    /// Extract an integer (internal-error panic on mismatch; the verifier
    /// guarantees this for verified code).
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(i) => *i,
            other => panic!("verifier invariant broken: expected int, got {other:?}"),
        }
    }

    /// Extract a boolean.
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            other => panic!("verifier invariant broken: expected bool, got {other:?}"),
        }
    }

    /// Extract a string.
    pub fn as_str(&self) -> &Bytes {
        match self {
            Value::Str(s) => s,
            other => panic!("verifier invariant broken: expected str, got {other:?}"),
        }
    }

    /// Extract a handle id, checking the tag.
    pub fn as_handle(&self, want_tag: &str) -> u64 {
        match self {
            Value::Handle { tag, id } if *tag == want_tag => *id,
            other => panic!("verifier invariant broken: expected {want_tag}, got {other:?}"),
        }
    }

    /// A short rendering for logs.
    pub fn render(&self) -> String {
        match self {
            Value::Unit => "()".into(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Str(s) => format!("{:?}", String::from_utf8_lossy(s)),
            Value::Tuple(items) => {
                let parts: Vec<String> = items.iter().map(|v| v.render()).collect();
                format!("({})", parts.join(", "))
            }
            Value::Func(f) => format!("<fun {f:?}>"),
            Value::Table(t) => format!("<table len={}>", t.borrow().len()),
            Value::Handle { tag, id } => format!("<{tag}#{id}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_roundtrip() {
        assert_eq!(Value::Int(7).to_key(), Some(Key::Int(7)));
        assert_eq!(Value::str("ab").to_key(), Some(Key::Str(b"ab".to_vec())));
        assert_eq!(Value::new_table().to_key(), None);
    }

    #[test]
    fn hash_eq_on_hashables() {
        assert_eq!(Value::Int(1).hash_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).hash_eq(&Value::Int(2)), Some(false));
        assert_eq!(Value::str("a").hash_eq(&Value::str("a")), Some(true));
        assert_eq!(Value::new_table().hash_eq(&Value::new_table()), None);
    }

    #[test]
    fn hash_eq_agrees_with_key_equality_on_every_pair() {
        let values = [
            Value::Unit,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(0),
            Value::Int(1),
            Value::Int(-1),
            Value::str(""),
            Value::str("a"),
            Value::str("ab"),
            Value::str("b"),
            Value::str([0u8]),
            Value::str([1u8]),
        ];
        for a in &values {
            for b in &values {
                let want = a.to_key().unwrap() == b.to_key().unwrap();
                assert_eq!(a.hash_eq(b), Some(want), "{a:?} vs {b:?}");
            }
            assert_eq!(a.hash_eq(&Value::new_table()), None);
            assert_eq!(Value::handle("iport", 0).hash_eq(a), None);
        }
    }

    #[test]
    fn matches_respects_named_tags() {
        let h = Value::handle("iport", 3);
        assert!(h.matches(&Ty::named("iport")));
        assert!(!h.matches(&Ty::named("oport")));
        assert!(!Value::Int(3).matches(&Ty::named("iport")));
    }

    #[test]
    fn matches_tuples_structurally() {
        let v = Value::Tuple(Rc::new(vec![Value::Int(1), Value::str("x")]));
        assert!(v.matches(&Ty::tuple(vec![Ty::Int, Ty::Str])));
        assert!(!v.matches(&Ty::tuple(vec![Ty::Str, Ty::Str])));
    }

    #[test]
    fn table_shares_storage_across_clones() {
        let t = Value::new_table();
        let t2 = t.clone();
        if let (Value::Table(a), Value::Table(b)) = (&t, &t2) {
            a.borrow_mut().insert(Key::Int(1), Value::Int(10));
            assert_eq!(b.borrow().len(), 1);
        } else {
            unreachable!()
        }
    }

    #[test]
    #[should_panic(expected = "verifier invariant broken")]
    fn as_int_panics_on_mismatch() {
        let _ = Value::Unit.as_int();
    }
}
