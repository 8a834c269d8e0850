//! The dumb-bridge data path, written in switchlet bytecode.
//!
//! This is the reproduction's "real" loadable switchlet: the same flooding
//! behaviour as [`crate::switchlets::dumb::DumbBridge`], but authored with
//! the assembler, shipped as verified byte codes, loaded over TFTP, and
//! executed by the VM per frame. Integration tests check behavioural
//! equivalence against the native implementation, and every bridge of
//! the `ttcp_vm` workload in `perfbench/README.md` runs it, which gives
//! interpreted forwarding its end-to-end number (the analogue of the
//! paper's 0.47 ms Caml cost).

use switchlet::{ModuleBuilder, Op, Ty};

use crate::hostmods::handler_ty;

/// The module name the image loads under.
pub const NAME: &str = "vm_dumb";

/// Build the loadable image.
pub fn build_image() -> Vec<u8> {
    let mut mb = ModuleBuilder::new(NAME);
    let oport = Ty::named("oport");
    let i_num = mb.import("unixnet", "num_ports", Ty::func(vec![], Ty::Int));
    let i_bind = mb.import(
        "unixnet",
        "bind_out",
        Ty::func(vec![Ty::Int], oport.clone()),
    );
    let i_send = mb.import(
        "unixnet",
        "send_pkt_out",
        Ty::func(vec![oport.clone(), Ty::Str], Ty::Int),
    );
    let i_reg = mb.import(
        "func",
        "register_handler",
        Ty::func(vec![Ty::Str, handler_ty()], Ty::Unit),
    );
    let i_log = mb.import("log", "msg", Ty::func(vec![Ty::Str], Ty::Unit));

    // handler(frame: str, inport: int) -> unit
    let mut f = mb.func("switching", vec![Ty::Str, Ty::Int], Ty::Unit);
    let n = f.local(Ty::Int);
    let p = f.local(Ty::Int);
    f.op(Op::CallImport(i_num)).op(Op::LocalSet(n));
    f.op(Op::ConstInt(0)).op(Op::LocalSet(p));
    let head = f.new_label();
    let next = f.new_label();
    let exit = f.new_label();
    f.place(head);
    // while p < n
    f.op(Op::LocalGet(p)).op(Op::LocalGet(n)).op(Op::Ge);
    f.br_if(exit);
    // skip the arrival port ("all network interfaces except for the one
    // on which it was received")
    f.op(Op::LocalGet(p)).op(Op::LocalGet(1)).op(Op::Eq);
    f.br_if(next);
    f.op(Op::LocalGet(p)).op(Op::CallImport(i_bind));
    f.op(Op::LocalGet(0));
    f.op(Op::CallImport(i_send)).op(Op::Pop);
    f.place(next);
    f.op(Op::LocalGet(p)).op(Op::ConstInt(1)).op(Op::Add);
    f.op(Op::LocalSet(p));
    f.jump(head);
    f.place(exit);
    f.op(Op::ConstUnit).op(Op::Return);
    let handler_idx = mb.finish(f);
    mb.export("switching", handler_idx);

    // init: log a message, then register the switching function.
    let banner = mb.intern_str(b"vm dumb bridge: flooding installed");
    let key = mb.intern_str(b"switching");
    let mut init = mb.func("init", vec![], Ty::Unit);
    init.op(Op::ConstStr(banner))
        .op(Op::CallImport(i_log))
        .op(Op::Pop);
    init.op(Op::ConstStr(key));
    init.op(Op::FuncConst(handler_idx));
    init.op(Op::CallImport(i_reg));
    init.op(Op::Return);
    let init_idx = mb.finish(init);
    mb.set_init(init_idx);

    mb.build().encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchlet::{verify_module, Module};

    #[test]
    fn image_decodes_and_verifies() {
        let image = build_image();
        let module = Module::decode(&image).expect("well-formed image");
        assert_eq!(module.name, NAME);
        verify_module(&module).expect("statically type-safe");
        assert!(module.init.is_some(), "has registration forms");
    }

    #[test]
    fn image_is_deterministic() {
        assert_eq!(build_image(), build_image());
    }
}
