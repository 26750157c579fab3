//! The text assembler.
//!
//! Parses the canonical assembly dialect produced by the `Display`
//! implementations, plus directives:
//!
//! ```text
//! .kernel <name>      start a new kernel
//! .regs <n>           registers per thread
//! .shared <bytes>     static shared memory per block
//! .local <bytes>      per-thread local (spill) memory
//! .param <name>       declare the next kernel parameter
//! .ctl <byte>         control-notation field for the next instruction
//! <label>:            define a branch label
//! @P0 / @!P0          predicate guard prefix
//! ```
//!
//! Branch targets may be labels or absolute instruction indices, so
//! disassembled output re-assembles bit-identically.

use std::borrow::Cow;
use std::collections::HashMap;

use peakperf_arch::Generation;

use crate::ctl::CtlInfo;
use crate::isa::{Fields, OpInfo};
use crate::{Instruction, Kernel, Module, Operand, Pred, Reg, SassError, Slot, SpecialReg};

/// Assemble a source text into a [`Module`] for the given generation.
///
/// Kepler modules get a control-notation vector (defaulting to
/// [`CtlInfo::NONE`] per instruction, overridable with `.ctl`).
///
/// # Errors
///
/// Returns [`SassError::Parse`] with a 1-based line number on syntax errors,
/// and label-resolution errors for undefined/duplicate labels.
pub fn assemble(source: &str, generation: Generation) -> Result<Module, SassError> {
    let mut module = Module::new(generation);
    let mut state: Option<KernelState> = None;

    for (lineno, raw) in source.lines().enumerate() {
        let code = strip_comment(raw);
        let line = code.as_ref();
        if line.is_empty() {
            continue;
        }
        let lineno = lineno + 1;
        if let Some(rest) = line.strip_prefix('.') {
            parse_directive(rest, lineno, &mut module, &mut state)?;
        } else if let Some(name) = line.strip_suffix(':') {
            let st = expect_kernel(&mut state, lineno)?;
            let name = name.trim();
            if !is_ident(name) {
                return Err(err(lineno, format!("invalid label name `{name}`")));
            }
            if st
                .labels
                .insert(name.to_owned(), st.code.len() as u32)
                .is_some()
            {
                return Err(SassError::DuplicateLabel {
                    name: name.to_owned(),
                });
            }
        } else {
            let st = expect_kernel(&mut state, lineno)?;
            let mut cur = Cursor::new(line, lineno);
            let index = st.code.len();
            let (inst, label) = parse_instruction(&mut cur, index)?;
            cur.skip_ws();
            if !cur.done() {
                return Err(err(lineno, format!("trailing input `{}`", cur.rest())));
            }
            if inst.op.target().is_some() {
                st.branches.push((index, label, lineno));
            }
            st.code.push(inst);
            st.ctl.push(st.pending_ctl.take().unwrap_or(CtlInfo::NONE));
        }
    }
    if let Some(st) = state {
        module.kernels.push(st.finish(generation)?);
    }
    if module.kernels.is_empty() {
        return Err(err(0, "no `.kernel` directive found".to_owned()));
    }
    Ok(module)
}

struct KernelState {
    kernel: Kernel,
    code: Vec<Instruction>,
    ctl: Vec<CtlInfo>,
    labels: HashMap<String, u32>,
    pending_ctl: Option<CtlInfo>,
    /// Each branch's index, target label (`None`: absolute) and line.
    branches: Vec<(usize, Option<String>, usize)>,
}

impl KernelState {
    fn finish(mut self, generation: Generation) -> Result<Kernel, SassError> {
        for (index, label, line) in self.branches {
            let op = &mut self.code[index].op;
            if let (Some(name), Some(target)) = (label, op.target_mut()) {
                let resolved = self.labels.get(&name).copied();
                *target = resolved.ok_or(SassError::UndefinedLabel { name })?;
            }
            let target = op.target().unwrap_or(0);
            if target as usize > self.ctl.len() {
                return Err(err(
                    line,
                    format!("branch target {target:#x} is past the end of the kernel"),
                ));
            }
            let (row, fields) = op.split();
            row.check(&fields, index).map_err(|m| err(line, m))?;
        }
        let mut kernel = self.kernel;
        kernel.code = self.code;
        if kernel.num_regs == 0 {
            // No `.regs` directive: infer the count like the builder does.
            kernel.num_regs = kernel.regs_used();
        }
        kernel.ctl = if generation.uses_control_notation() {
            Some(self.ctl)
        } else {
            None
        };
        Ok(kernel)
    }
}

fn expect_kernel(
    state: &mut Option<KernelState>,
    lineno: usize,
) -> Result<&mut KernelState, SassError> {
    state
        .as_mut()
        .ok_or_else(|| err(lineno, "statement before `.kernel`".to_owned()))
}

fn parse_directive(
    rest: &str,
    lineno: usize,
    module: &mut Module,
    state: &mut Option<KernelState>,
) -> Result<(), SassError> {
    let (word, arg) = match rest.split_once(char::is_whitespace) {
        Some((w, a)) => (w, a.trim()),
        None => (rest, ""),
    };
    let count = |what| parse_u32(arg).ok_or_else(|| err(lineno, format!("expected {what}")));
    match word {
        "kernel" => {
            if !is_ident(arg) {
                return Err(err(lineno, format!("invalid kernel name `{arg}`")));
            }
            if let Some(prev) = state.take() {
                module.kernels.push(prev.finish(module.generation)?);
            }
            *state = Some(KernelState {
                kernel: Kernel::new(arg),
                code: Vec::new(),
                ctl: Vec::new(),
                labels: HashMap::new(),
                pending_ctl: None,
                branches: Vec::new(),
            });
        }
        "regs" => expect_kernel(state, lineno)?.kernel.num_regs = count("register count")?,
        "shared" => expect_kernel(state, lineno)?.kernel.shared_bytes = count("byte count")?,
        "local" => expect_kernel(state, lineno)?.kernel.local_bytes = count("byte count")?,
        "param" => {
            if !is_ident(arg) {
                return Err(err(lineno, format!("invalid parameter name `{arg}`")));
            }
            expect_kernel(state, lineno)?.kernel.add_param(arg);
        }
        "ctl" => {
            let byte = parse_u32(arg)
                .filter(|&v| v <= 0xFF)
                .ok_or_else(|| err(lineno, "expected control byte".to_owned()))?;
            let info = CtlInfo::from_byte(byte as u8).map_err(|e| err(lineno, e.to_string()))?;
            expect_kernel(state, lineno)?.pending_ctl = Some(info);
        }
        other => return Err(err(lineno, format!("unknown directive `.{other}`"))),
    }
    Ok(())
}

/// The code of one line without its comments, trimmed: `//` runs to the
/// end of the line, `/* ... */` closes on it (or runs to its end). Borrowed
/// from the line unless code sits on both sides of a comment.
fn strip_comment(line: &str) -> Cow<'_, str> {
    let mut code = code_segments(line).filter(|s| !s.trim().is_empty());
    match (code.next(), code.next()) {
        (None, _) => Cow::Borrowed(""),
        (Some(only), None) => Cow::Borrowed(only.trim()),
        _ => Cow::Owned(code_segments(line).collect::<String>().trim().to_owned()),
    }
}

/// The pieces of `line` outside its comments, in order.
fn code_segments(line: &str) -> impl Iterator<Item = &str> {
    let mut rest = Some(line);
    std::iter::from_fn(move || {
        let text = rest?;
        let bytes = text.as_bytes();
        let open = (bytes.windows(2)).position(|w| w[0] == b'/' && matches!(w[1], b'/' | b'*'));
        let Some(i) = open else {
            rest = None;
            return Some(text);
        };
        rest = match bytes[i + 1] {
            b'*' => (bytes[i + 2..].windows(2))
                .position(|w| w == b"*/")
                .map(|end| &text[i + 2 + end + 2..]),
            _ => None,
        };
        Some(&text[..i])
    })
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_u32(s: &str) -> Option<u32> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn err(line: usize, message: impl Into<String>) -> SassError {
    SassError::Parse {
        line,
        message: message.into(),
    }
}

/// Cursor over one statement. Every token is ASCII, so it steps over
/// bytes; only whitespace may be any Unicode `White_Space` character.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str, line: usize) -> Cursor<'a> {
        Cursor { text, pos: 0, line }
    }

    fn rest(&self) -> &'a str {
        self.text.get(self.pos..).unwrap_or("")
    }

    fn done(&self) -> bool {
        self.pos >= self.text.len()
    }

    /// Step over whitespace, a whole character at a time: the ASCII
    /// kinds and any other Unicode `White_Space` (`U+00A0`, `U+3000`, ...).
    fn skip_ws(&mut self) {
        while let Some(c) = self.next_char().filter(|c| c.is_whitespace()) {
            self.pos += c.len_utf8();
        }
    }

    /// The character at the cursor.
    fn next_char(&self) -> Option<char> {
        match self.peek()? {
            b if b.is_ascii() => Some(char::from(b)),
            _ => self.rest().chars().next(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consume the ASCII character `c` if it comes next.
    fn eat(&mut self, c: u8) -> bool {
        let next = self.peek() == Some(c);
        self.pos += usize::from(next);
        next
    }

    fn expect(&mut self, c: u8) -> Result<(), SassError> {
        self.skip_ws();
        if self.eat(c) {
            Ok(())
        } else {
            Err(err(
                self.line,
                format!("expected `{}` before `{}`", char::from(c), self.rest()),
            ))
        }
    }

    /// Step over the bytes that satisfy `keep`; the text stepped over.
    fn take_while(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(&keep) {
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }

    /// Consume a word: identifier characters plus `.` (mnemonics and
    /// special-register names contain dots).
    fn word(&mut self) -> &'a str {
        self.skip_ws();
        self.take_while(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.')
    }

    fn number_i64(&mut self) -> Result<i64, SassError> {
        self.skip_ws();
        let neg = self.eat(b'-');
        let start = self.pos;
        let hex = self.rest().starts_with("0x") || self.rest().starts_with("0X");
        let value = if hex {
            self.pos += 2;
            i64::from_str_radix(self.take_while(|b| b.is_ascii_hexdigit()), 16)
        } else {
            self.take_while(|b| b.is_ascii_digit()).parse()
        };
        let text = &self.text[start..self.pos];
        let value = value.map_err(|_| err(self.line, format!("invalid number `{text}`")))?;
        Ok(if neg { -value } else { value })
    }

    fn number_i32(&mut self) -> Result<i32, SassError> {
        let v = self.number_i64()?;
        i32::try_from(v)
            .or_else(|_| u32::try_from(v).map(|u| u as i32))
            .map_err(|_| err(self.line, format!("number {v} out of 32-bit range")))
    }

    /// The index of a register (`R5`) or predicate (`P0`) name: `prefix`
    /// and digits, or `top` (`RZ`, `PT`) for the hardwired one.
    fn index(&mut self, prefix: char, top: (&str, u8), what: &str) -> Result<u8, SassError> {
        let w = self.word();
        let digits = w.strip_prefix(prefix).and_then(|s| s.parse().ok());
        let index = if w == top.0 { Some(top.1) } else { digits };
        index.ok_or_else(|| err(self.line, format!("expected {what}, found `{w}`")))
    }

    fn reg(&mut self) -> Result<Reg, SassError> {
        let index = self.index('R', ("RZ", 63), "register")?;
        Reg::new(index).map_err(|e| err(self.line, e.to_string()))
    }

    fn pred(&mut self) -> Result<Pred, SassError> {
        let index = self.index('P', ("PT", 7), "predicate")?;
        Pred::new(index).map_err(|e| err(self.line, e.to_string()))
    }

    /// Parse a flexible operand: register, immediate, or `c[bank][offset]`.
    fn operand(&mut self) -> Result<Operand, SassError> {
        self.skip_ws();
        match self.peek() {
            Some(b'R') => Ok(Operand::Reg(self.reg()?)),
            Some(b'c') => self.const_ref(),
            _ => Ok(Operand::Imm(self.number_i32()?)),
        }
    }

    fn const_ref(&mut self) -> Result<Operand, SassError> {
        self.skip_ws();
        if !self.eat(b'c') {
            return Err(err(self.line, "expected constant reference".to_owned()));
        }
        self.expect(b'[')?;
        let bank = self.number_i64()?;
        self.expect(b']')?;
        self.expect(b'[')?;
        let offset = self.number_i64()?;
        self.expect(b']')?;
        let bank = u8::try_from(bank)
            .map_err(|_| err(self.line, format!("constant bank {bank} out of range")))?;
        let offset = u32::try_from(offset)
            .map_err(|_| err(self.line, format!("constant offset {offset} out of range")))?;
        Ok(Operand::Const { bank, offset })
    }

    /// Parse `[Rn]`, `[Rn+0x8]`, or `[Rn-0x8]`.
    fn mem_addr(&mut self) -> Result<(Reg, i32), SassError> {
        self.expect(b'[')?;
        let base = self.reg()?;
        self.skip_ws();
        // A `-` is consumed by `number_i32` as the sign; `+` is eaten here
        // and takes an unsigned number.
        let plus = self.eat(b'+');
        self.skip_ws();
        let offset = if plus && self.peek() == Some(b'-') {
            return Err(err(self.line, "expected an offset after `+`, found `-`"));
        } else if plus || self.peek() == Some(b'-') {
            self.number_i32()?
        } else {
            0
        };
        self.expect(b']')?;
        Ok((base, offset))
    }
}

/// Parse one instruction, the `index`-th of its kernel: the mnemonic
/// names a row of [`TABLE`] exactly, whose slots say what follows. A
/// branch to a label gets target 0 and the label, for
/// [`KernelState::finish`] to resolve.
fn parse_instruction(
    cur: &mut Cursor<'_>,
    index: usize,
) -> Result<(Instruction, Option<String>), SassError> {
    cur.skip_ws();
    let (pred, pred_neg) = if cur.eat(b'@') {
        let neg = cur.eat(b'!');
        (Some(cur.pred()?), neg)
    } else {
        (None, false)
    };
    let mnemonic = cur.word();
    let line = cur.line;
    let (row, m) = OpInfo::by_name(mnemonic)
        .ok_or_else(|| err(line, format!("unknown mnemonic `{mnemonic}`")))?;
    let mut x = Fields { m, ..Fields::EMPTY };
    let mut label = None;
    for (i, slot) in row.syntax.iter().enumerate() {
        if i > 0 {
            cur.expect(b',')?;
        }
        match slot {
            Slot::Dst | Slot::Load | Slot::Store => x.dst = cur.reg()?,
            Slot::P => x.p = cur.pred()?,
            Slot::A => x.a = cur.reg()?,
            Slot::B { .. } => x.b = cur.operand()?,
            Slot::C => x.c = cur.reg()?,
            Slot::Shift => x.n = cur.number_i64()?,
            Slot::Special => {
                let name = cur.word();
                let sr = SpecialReg::ALL.iter().position(|s| s.name() == name);
                let sr =
                    sr.ok_or_else(|| err(line, format!("unknown special register `{name}`")))?;
                x.n = sr as i64;
            }
            Slot::Imm32 => {
                let imm = cur.number_i64()?;
                if !(-0x8000_0000..=0xFFFF_FFFF).contains(&imm) {
                    return Err(err(line, format!("immediate {imm} out of 32-bit range")));
                }
                x.n = i64::from(imm as u32);
            }
            Slot::Target => {
                cur.skip_ws();
                if cur.peek().is_some_and(|b| b.is_ascii_digit()) {
                    x.n = cur.number_i64()?;
                } else {
                    let name = cur.word();
                    if !is_ident(name) {
                        return Err(err(line, format!("invalid branch target `{name}`")));
                    }
                    label = Some(name.to_owned());
                }
            }
            Slot::Addr => {
                let (a, offset) = cur.mem_addr()?;
                (x.a, x.n) = (a, offset.into());
            }
            Slot::Const => x.b = cur.const_ref()?,
        }
    }
    cur.expect(b';')?;
    row.check(&x, index).map_err(|m| err(line, m))?;
    let op = row.build(&x);
    Ok((Instruction { pred, pred_neg, op }, label))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemSpace, MemWidth, Op};

    fn one(src: &str) -> Instruction {
        let full = format!(".kernel t\n{src}\n");
        let m = assemble(&full, Generation::Fermi).unwrap();
        assert_eq!(m.kernels[0].code.len(), 1);
        m.kernels[0].code[0]
    }

    #[test]
    fn parses_basic_instructions() {
        assert_eq!(
            one("FFMA R8, R4, R5, R8;").op,
            Op::Ffma {
                dst: Reg::r(8),
                a: Reg::r(4),
                b: Operand::reg(5),
                c: Reg::r(8),
            }
        );
        assert_eq!(
            one("LDS.64 R6, [R20+0x8];").op,
            Op::Ld {
                space: MemSpace::Shared,
                width: MemWidth::B64,
                dst: Reg::r(6),
                addr: Reg::r(20),
                offset: 8,
            }
        );
        assert_eq!(
            one("STS [R3-0x4], R2;").op,
            Op::St {
                space: MemSpace::Shared,
                width: MemWidth::B32,
                src: Reg::r(2),
                addr: Reg::r(3),
                offset: -4,
            }
        );
        assert_eq!(
            one("IADD R4, R4, -0x10;").op,
            Op::Iadd {
                dst: Reg::r(4),
                a: Reg::r(4),
                b: Operand::Imm(-16),
            }
        );
        assert_eq!(
            one("LDC R1, c[0x0][0x20];").op,
            Op::Ldc {
                dst: Reg::r(1),
                bank: 0,
                offset: 0x20,
            }
        );
        assert_eq!(
            one("FMUL R1, R2, c[0x0][0x28];").op,
            Op::Fmul {
                dst: Reg::r(1),
                a: Reg::r(2),
                b: Operand::Const {
                    bank: 0,
                    offset: 0x28
                },
            }
        );
    }

    #[test]
    fn parses_guards() {
        let i = one("@!P0 EXIT;");
        assert_eq!(i.pred, Some(Pred::p(0)));
        assert!(i.pred_neg);
        let i = one("@P3 NOP;");
        assert_eq!(i.pred, Some(Pred::p(3)));
        assert!(!i.pred_neg);
    }

    #[test]
    fn labels_resolve() {
        let src = r#"
.kernel loopy
.regs 4
MOV32I R0, 0x10;
LOOP:
IADD R0, R0, -0x1;
ISETP.GT P0, R0, 0x0;
@P0 BRA LOOP;
EXIT;
"#;
        let m = assemble(src, Generation::Fermi).unwrap();
        let code = &m.kernels[0].code;
        assert_eq!(code[3].op, Op::Bra { target: 1 });
    }

    #[test]
    fn numeric_branch_targets_work() {
        let src = ".kernel t\nBRA 0x0;\nEXIT;\n";
        let m = assemble(src, Generation::Fermi).unwrap();
        assert_eq!(m.kernels[0].code[0].op, Op::Bra { target: 0 });
    }

    #[test]
    fn undefined_label_is_error() {
        let src = ".kernel t\nBRA NOWHERE;\nEXIT;\n";
        assert!(matches!(
            assemble(src, Generation::Fermi),
            Err(SassError::UndefinedLabel { .. })
        ));
    }

    #[test]
    fn duplicate_label_is_error() {
        let src = ".kernel t\nA:\nNOP;\nA:\nEXIT;\n";
        assert!(matches!(
            assemble(src, Generation::Fermi),
            Err(SassError::DuplicateLabel { .. })
        ));
    }

    #[test]
    fn comments_are_stripped() {
        let src = ".kernel t\n/*0000*/ NOP; // trailing\nEXIT;\n";
        let m = assemble(src, Generation::Fermi).unwrap();
        assert_eq!(m.kernels[0].code.len(), 2);
    }

    #[test]
    fn directives_populate_metadata() {
        let src = "\
.kernel meta
.regs 63
.shared 0x3000
.local 40
.param n
.param a_ptr
EXIT;
";
        let m = assemble(src, Generation::Fermi).unwrap();
        let k = &m.kernels[0];
        assert_eq!(k.num_regs, 63);
        assert_eq!(k.shared_bytes, 0x3000);
        assert_eq!(k.local_bytes, 40);
        assert_eq!(k.params.len(), 2);
        assert_eq!(k.params[1].offset, crate::PARAM_BASE + 4);
    }

    #[test]
    fn ctl_directive_applies_to_next_instruction() {
        let src = ".kernel t\n.ctl 0x04\nNOP;\nEXIT;\n";
        let m = assemble(src, Generation::Kepler).unwrap();
        let k = &m.kernels[0];
        let ctl = k.ctl.as_ref().unwrap();
        assert_eq!(ctl[0].stall, 4);
        assert_eq!(ctl[1], CtlInfo::NONE);
    }

    #[test]
    fn fermi_modules_carry_no_ctl() {
        let src = ".kernel t\nNOP;\n";
        let m = assemble(src, Generation::Fermi).unwrap();
        assert!(m.kernels[0].ctl.is_none());
    }

    #[test]
    fn multiple_kernels() {
        let src = ".kernel a\nEXIT;\n.kernel b\nNOP;\nEXIT;\n";
        let m = assemble(src, Generation::Fermi).unwrap();
        assert_eq!(m.kernels.len(), 2);
        assert_eq!(m.kernel("b").unwrap().code.len(), 2);
    }

    #[test]
    fn error_reports_line_numbers() {
        let src = ".kernel t\nNOP;\nBOGUS R1;\n";
        match assemble(src, Generation::Fermi) {
            Err(SassError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    fn parse_error(src: &str) -> (usize, String) {
        match assemble(src, Generation::Fermi) {
            Err(SassError::Parse { line, message }) => (line, message),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_modifiers_are_rejected_with_their_line() {
        // Each used to assemble as the plain mnemonic, modifier dropped.
        for inst in [
            "IADD.X R1, R2, R3;",
            "FADD.FTZ R1, R2, R3;",
            "MOV.U32 R1, R2;",
            "EXIT.KEEP;",
        ] {
            let (line, message) = parse_error(&format!(".kernel t\nNOP;\n{inst}\n"));
            assert_eq!(line, 3, "{inst}");
            assert!(message.starts_with("unknown mnemonic"), "{inst}: {message}");
        }
    }

    #[test]
    fn every_instruction_error_names_its_line() {
        for (inst, needle) in [
            ("IADD R1, R2, R64;", "register index 64"),
            ("ISETP.LT P8, R1, R2;", "predicate index 8"),
            ("LDS R1, [R2+-0x4];", "after `+`"),
            ("FADD R1, R2, 0x1;", "floating-point"),
            ("LDS.64 R7, [R0];", "2-register aligned"),
            ("ISCADD R1, R2, R3, 0x20;", "shift 32"),
        ] {
            let (line, message) = parse_error(&format!(".kernel t\n{inst}\n"));
            assert_eq!(line, 2, "{inst}");
            assert!(message.contains(needle), "{inst}: {message}");
        }
    }

    #[test]
    fn unicode_whitespace_separates_tokens() {
        // Each used to panic, stepping one byte into a multi-byte space.
        let iadd = one("IADD R1, R2, 0x1;").op;
        assert_eq!(one("IADD R1,\u{a0}R2, 0x1;").op, iadd);
        assert_eq!(one("IADD\u{3000}R1, R2, 0x1\u{3000};").op, iadd);
        // Any other non-ASCII character is an error on its line.
        let (line, message) = parse_error(".kernel t\nIADD R1, R2, 0x1\u{e9};\n");
        assert_eq!(
            (line, message.as_str()),
            (2, "expected `;` before `\u{e9};`")
        );
    }

    #[test]
    fn disassembly_reassembles() {
        let src = r#"
.kernel t
.regs 16
S2R R0, SR_TID.X;
S2R R1, SR_CTAID.X;
IMAD R2, R1, 0x100, R0;
SHL R3, R2, 0x2;
LD R4, [R3];
FFMA R4, R4, R4, R4;
ST [R3], R4;
EXIT;
"#;
        let m = assemble(src, Generation::Fermi).unwrap();
        let text = m.to_string();
        let m2 = assemble(&text, Generation::Fermi).unwrap();
        assert_eq!(m2.kernels[0].code, m.kernels[0].code);
    }
}
