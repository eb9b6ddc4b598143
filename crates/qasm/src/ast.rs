//! OpenQASM 2.0 abstract syntax tree.

/// Parameter expressions (angles).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Num(f64),
    /// `pi`.
    Pi,
    /// Gate parameter reference.
    Ident(String),
    /// Binary operation.
    Bin(Box<Expr>, BinOp, Box<Expr>),
    /// Unary negation.
    Neg(Box<Expr>),
    /// Built-in unary function call.
    Call(UnaryFn, Box<Expr>),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `^`
    Pow,
}

/// Built-in unary functions of the OpenQASM expression grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryFn {
    /// `sin`
    Sin,
    /// `cos`
    Cos,
    /// `tan`
    Tan,
    /// `exp`
    Exp,
    /// `ln`
    Ln,
    /// `sqrt`
    Sqrt,
}

impl UnaryFn {
    /// Look up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "sin" => Some(Self::Sin),
            "cos" => Some(Self::Cos),
            "tan" => Some(Self::Tan),
            "exp" => Some(Self::Exp),
            "ln" => Some(Self::Ln),
            "sqrt" => Some(Self::Sqrt),
            _ => None,
        }
    }

    /// Apply.
    #[must_use]
    pub fn eval(self, x: f64) -> f64 {
        match self {
            Self::Sin => x.sin(),
            Self::Cos => x.cos(),
            Self::Tan => x.tan(),
            Self::Exp => x.exp(),
            Self::Ln => x.ln(),
            Self::Sqrt => x.sqrt(),
        }
    }
}

impl Expr {
    /// Evaluate with gate-parameter bindings.
    ///
    /// # Errors
    /// [`svsim_types::SvError::Undefined`] for unbound identifiers.
    pub fn eval(&self, bindings: &dyn Fn(&str) -> Option<f64>) -> svsim_types::SvResult<f64> {
        Ok(match self {
            Expr::Num(v) => *v,
            Expr::Pi => std::f64::consts::PI,
            Expr::Ident(name) => bindings(name)
                .ok_or_else(|| svsim_types::SvError::Undefined(format!("parameter {name}")))?,
            Expr::Bin(a, op, b) => {
                let (a, b) = (a.eval(bindings)?, b.eval(bindings)?);
                match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Pow => a.powf(b),
                }
            }
            Expr::Neg(e) => -e.eval(bindings)?,
            Expr::Call(f, e) => f.eval(e.eval(bindings)?),
        })
    }
}

/// A quantum or classical argument: a whole register or one element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Argument {
    /// Register name.
    pub name: String,
    /// Element index, or `None` for the whole register.
    pub index: Option<u64>,
}

/// A gate invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCall {
    /// Gate name (builtin `U`/`CX`, qelib gate, or user-defined).
    pub name: String,
    /// Parameter expressions.
    pub params: Vec<Expr>,
    /// Quantum arguments.
    pub args: Vec<Argument>,
    /// Source line (for error reporting).
    pub line: usize,
}

/// Statements of a program.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `qreg name[n];`
    QReg {
        /// Register name.
        name: String,
        /// Width.
        size: u64,
        /// Source line (for error reporting).
        line: usize,
    },
    /// `creg name[n];`
    CReg {
        /// Register name.
        name: String,
        /// Width.
        size: u64,
        /// Source line (for error reporting).
        line: usize,
    },
    /// `include "...";`
    Include(String),
    /// `gate name(params) qargs { body }`
    GateDef(GateDef),
    /// `opaque name(params) qargs;`
    Opaque {
        /// Gate name.
        name: String,
    },
    /// A gate call.
    Call(GateCall),
    /// `measure q -> c;`
    Measure {
        /// Source.
        qarg: Argument,
        /// Destination.
        carg: Argument,
    },
    /// `reset q;`
    Reset {
        /// Target.
        qarg: Argument,
    },
    /// `barrier args;`
    Barrier {
        /// Involved qubits (empty = none listed).
        qargs: Vec<Argument>,
    },
    /// `if (creg == value) <quantum op>;`
    If {
        /// Compared register.
        creg: String,
        /// Comparison value.
        value: u64,
        /// Conditioned operation (a call, measure, or reset).
        body: Box<Statement>,
    },
}

/// A user gate definition.
#[derive(Debug, Clone, PartialEq)]
pub struct GateDef {
    /// Gate name.
    pub name: String,
    /// Formal parameter names.
    pub params: Vec<String>,
    /// Formal qubit argument names.
    pub qargs: Vec<String>,
    /// Body: gate calls and barriers over the formal arguments.
    pub body: Vec<GateCall>,
}

/// A parsed program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Declared version (e.g. 2.0).
    pub version: Option<f64>,
    /// Statements in order.
    pub statements: Vec<Statement>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_eval() {
        // pi/2 + 2*3
        let e = Expr::Bin(
            Box::new(Expr::Bin(
                Box::new(Expr::Pi),
                BinOp::Div,
                Box::new(Expr::Num(2.0)),
            )),
            BinOp::Add,
            Box::new(Expr::Bin(
                Box::new(Expr::Num(2.0)),
                BinOp::Mul,
                Box::new(Expr::Num(3.0)),
            )),
        );
        let v = e.eval(&|_| None).unwrap();
        assert!((v - (std::f64::consts::FRAC_PI_2 + 6.0)).abs() < 1e-15);
    }

    #[test]
    fn expr_bindings_and_unbound() {
        let e = Expr::Neg(Box::new(Expr::Ident("theta".into())));
        assert_eq!(e.eval(&|n| (n == "theta").then_some(0.5)).unwrap(), -0.5);
        assert!(e.eval(&|_| None).is_err());
    }

    #[test]
    fn unary_fns() {
        assert_eq!(UnaryFn::from_name("cos"), Some(UnaryFn::Cos));
        assert_eq!(UnaryFn::from_name("nope"), None);
        let e = Expr::Call(UnaryFn::Sqrt, Box::new(Expr::Num(9.0)));
        assert_eq!(e.eval(&|_| None).unwrap(), 3.0);
    }

    #[test]
    fn pow_operator() {
        let e = Expr::Bin(
            Box::new(Expr::Num(2.0)),
            BinOp::Pow,
            Box::new(Expr::Num(10.0)),
        );
        assert_eq!(e.eval(&|_| None).unwrap(), 1024.0);
    }
}
