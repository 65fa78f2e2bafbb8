//! Wire protocol shared by the `sqdmd` daemon and the `sqdmctl` client.
//!
//! Everything that crosses the daemon's TCP boundary is defined here — the
//! typed request/response bodies of every endpoint, the JSON encoding that
//! carries them, and the minimal HTTP/1.1 client the CLI and the end-to-end
//! tests speak. Client and server both compile against these types, so the
//! two sides cannot drift: adding a field is one edit, visible to both.
//!
//! # Endpoints
//!
//! | Method | Path              | Request body      | Response body       |
//! |--------|-------------------|-------------------|---------------------|
//! | POST   | `/v1/models`      | [`RegisterModel`] | [`ModelRegistered`] |
//! | POST   | `/v1/submit`      | [`Submit`]        | [`Submitted`]       |
//! | GET    | `/v1/status/{id}` | —                 | [`StatusReply`]     |
//! | GET    | `/v1/stats`       | —                 | [`StatsReply`]      |
//! | POST   | `/v1/drain`       | —                 | [`DrainReply`]      |
//!
//! Errors come back as [`ErrorReply`] with a 4xx/5xx status code.
//!
//! # Bitwise image transfer
//!
//! A finished sample crosses the wire as [`ImagePayload`]: the `f32` pixels
//! are shipped as their IEEE-754 bit patterns (`u32`), so the bytes a
//! client reassembles are **bit-for-bit** the bytes the serving contract
//! pins to solo [`crate::sample`] — JSON float formatting can never round
//! them.

use serde::{Deserialize, Serialize};

use crate::error::EdmError;
use crate::serve::TenantRollup;

/// Version of the wire protocol spoken by this build. Carried in every
/// reply's `proto_version` field so clients can detect a daemon that is
/// newer (or older) than the types they compiled against instead of
/// misparsing it. History: 1 = PR 8 initial protocol; 2 = `Submit.priority`,
/// `StatsReply.rejected`, HTTP 429 overload; 3 = this revision (per-model
/// energy/occupancy stats, daemon `--energy-budget`).
pub const PROTO_VERSION: u32 = 3;

/// Checks a reply's `proto_version` against this build.
///
/// Older peers are fine — every revision so far only added fields, and
/// absent fields decode as `None` — but a **newer** peer may be sending
/// semantics this build cannot interpret, so that is a typed error
/// instead of a silent mis-parse.
///
/// # Errors
///
/// Returns [`EdmError::ProtocolMismatch`] when `got > PROTO_VERSION`.
pub fn check_proto_version(got: u32) -> Result<(), EdmError> {
    if got > PROTO_VERSION {
        return Err(EdmError::ProtocolMismatch {
            expected: PROTO_VERSION,
            got,
        });
    }
    Ok(())
}

/// Body of `POST /v1/models`: make a model resident.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegisterModel {
    /// Human-readable model name, echoed by `/v1/stats`.
    pub name: String,
    /// Architecture preset: `"micro"` or `"default"`
    /// (see [`crate::UNetConfig`]).
    pub preset: String,
    /// Precision assignment: `"fp32"`, `"int8"` (execution mode from the
    /// daemon's `SQDM_EXEC` default), `"int8-fakequant"`, or
    /// `"int8-native"`.
    pub precision: String,
    /// Seed for the model's weight initialization. The same
    /// `(preset, seed)` pair always yields bitwise-identical weights, so a
    /// test can rebuild the exact resident model in process.
    pub seed: u64,
}

/// Response of `POST /v1/models`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelRegistered {
    /// The dense model id assigned by the registry (submission key).
    pub model: usize,
    /// The registered name, echoed back.
    pub name: String,
    /// The resolved precision label (e.g. `"int8-native"`), after the
    /// daemon applied its `SQDM_EXEC` default to a bare `"int8"`.
    pub precision: String,
    /// Protocol revision of the daemon ([`PROTO_VERSION`]).
    pub proto_version: u32,
}

/// Body of `POST /v1/submit`: one generation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Submit {
    /// Target model id, as returned by `/v1/models`.
    pub model: usize,
    /// Caller-chosen request id; globally unique for the daemon's
    /// lifetime. A duplicate is rejected with HTTP 409.
    pub id: u64,
    /// Seed of the request's private noise stream.
    pub seed: u64,
    /// Step budget (must be at least 2; see
    /// [`crate::serve::ServeRequest::steps`]).
    pub steps: usize,
    /// Submitting tenant (admission fair-share and stats rollups).
    pub tenant: u32,
    /// Static priority class; higher wins under the `Priority` admission
    /// policy, ignored by the others (see
    /// [`crate::serve::ServeRequest::priority`]).
    pub priority: u32,
}

/// Response of `POST /v1/submit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Submitted {
    /// The accepted request id.
    pub id: u64,
    /// The model it was routed to.
    pub model: usize,
    /// Virtual step at which the request entered the queue.
    pub arrival_step: usize,
    /// Protocol revision of the daemon ([`PROTO_VERSION`]).
    pub proto_version: u32,
}

/// A finished sample in bitwise-exact transport form.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImagePayload {
    /// Tensor dimensions, `[1, C, S, S]`.
    pub dims: Vec<usize>,
    /// IEEE-754 bit patterns of the `f32` pixels, row-major.
    pub bits: Vec<u32>,
}

/// Response of `GET /v1/status/{id}`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusReply {
    /// The request id.
    pub id: u64,
    /// Lifecycle state: `"queued"`, `"running"`, `"done"`, or `"failed"`.
    pub state: String,
    /// The model serving the request.
    pub model: usize,
    /// The generated image; present only in the `"done"` state.
    pub image: Option<ImagePayload>,
    /// The failure reason; present only in the `"failed"` state.
    pub error: Option<String>,
    /// Protocol revision of the daemon ([`PROTO_VERSION`]).
    pub proto_version: u32,
}

/// Per-model serving statistics inside [`StatsReply`].
///
/// All aggregates cover **completed** requests only; `Option` fields are
/// absent (`null` on the wire) until the first request or round completes,
/// so the JSON never has to encode a NaN.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelStatsWire {
    /// The model id.
    pub model: usize,
    /// The registered model name.
    pub name: String,
    /// The resolved precision label the model serves with.
    pub precision: String,
    /// Requests completed so far.
    pub completed: usize,
    /// Batched Heun rounds this model has executed.
    pub rounds: usize,
    /// Mean end-to-end latency in virtual steps.
    pub mean_latency: Option<f64>,
    /// Nearest-rank p50 of per-request latency, virtual steps.
    pub p50_latency: Option<usize>,
    /// Nearest-rank p95 of per-request latency, virtual steps.
    pub p95_latency: Option<usize>,
    /// Nearest-rank p99 of per-request latency, virtual steps.
    pub p99_latency: Option<usize>,
    /// Mean in-flight batch size over executed rounds.
    pub mean_batch_occupancy: Option<f64>,
    /// Simulated energy per completed image in pJ, under the daemon's
    /// cost model; absent until the first request completes, or always
    /// absent under the no-op cost model's zero accounting.
    pub energy_per_image_pj: Option<f64>,
    /// Mean simulated PE-array occupancy over executed rounds, `0.0..=1.0`;
    /// never below the smallest round's occupancy nor above
    /// `peak_occupancy`.
    pub mean_occupancy: Option<f64>,
    /// Peak simulated PE-array occupancy over executed rounds.
    pub peak_occupancy: Option<f64>,
}

/// Response of `GET /v1/stats`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// The scheduler's virtual clock (one tick per outer denoise round).
    pub clock: usize,
    /// Total rounds executed across all models.
    pub rounds: usize,
    /// Whether `/v1/drain` has been accepted (new submits are rejected).
    pub draining: bool,
    /// Requests queued or in flight right now.
    pub active_requests: usize,
    /// Submissions refused with HTTP 429 because a model's bounded
    /// pending queue was full, over the daemon's lifetime.
    pub rejected: u64,
    /// Protocol revision of the daemon ([`PROTO_VERSION`]).
    pub proto_version: u32,
    /// Per-model statistics, indexed by model id.
    pub models: Vec<ModelStatsWire>,
    /// Per-tenant rollups across all models, ascending by tenant id
    /// (completed requests only, so the means are always finite).
    pub tenants: Vec<TenantRollup>,
}

/// Response of `POST /v1/drain`. The reply is sent only after every
/// request that was queued or in flight when the drain arrived has
/// completed its remaining denoise rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrainReply {
    /// Requests completed over the daemon's lifetime.
    pub completed: usize,
    /// Total rounds executed.
    pub rounds: usize,
    /// Virtual clock at drain completion.
    pub final_step: usize,
    /// Protocol revision of the daemon ([`PROTO_VERSION`]).
    pub proto_version: u32,
}

/// Error body attached to every non-2xx response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorReply {
    /// Human-readable description of what was rejected and why.
    pub error: String,
}

pub mod json {
    //! JSON encoding of the wire types, built on the vendored serde shim:
    //! a complete [`serde::Serializer`] that writes compact JSON text, and
    //! a recursive-descent parser producing the shim's
    //! [`serde::de::Value`] tree for derived `Deserialize` impls.
    //!
    //! Conventions match the derive macros: structs are objects keyed by
    //! field name, unit enum variants are strings, data-carrying variants
    //! are single-entry objects, `Option::None` is `null`. Non-finite
    //! floats serialize as `null` (JSON has no NaN), which round-trips
    //! into `Option<f64>` fields as `None`.

    use serde::de::{self, Value};
    use serde::ser::{self, Serialize};
    use std::fmt;

    /// Maximum nesting depth the parser accepts; adversarial bodies made
    /// of thousands of `[` must fail cleanly instead of overflowing the
    /// connection thread's stack.
    const MAX_DEPTH: usize = 128;

    /// JSON encode/decode failure.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct JsonError(pub String);

    impl fmt::Display for JsonError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "json error: {}", self.0)
        }
    }

    impl std::error::Error for JsonError {}

    impl ser::Error for JsonError {
        fn custom<T: fmt::Display>(msg: T) -> Self {
            JsonError(msg.to_string())
        }
    }

    impl de::Error for JsonError {
        fn custom<T: fmt::Display>(msg: T) -> Self {
            JsonError(msg.to_string())
        }
    }

    /// Serializes any `Serialize` type to a compact JSON string.
    ///
    /// # Errors
    ///
    /// Propagates errors raised by the type's `Serialize` impl (the
    /// writer itself is infallible).
    pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, JsonError> {
        let mut ser = Writer { out: String::new() };
        value.serialize(&mut ser)?;
        Ok(ser.out)
    }

    /// Parses JSON text and reconstructs `T` through its derived
    /// [`serde::Deserialize`] impl.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] for malformed JSON (including trailing
    /// garbage and nesting beyond the parser's depth guard) or a value
    /// tree that does
    /// not match `T`.
    pub fn from_str<'de, T: de::Deserialize<'de>>(input: &str) -> Result<T, JsonError> {
        let value = parse(input)?;
        T::from_value(&value).map_err(JsonError)
    }

    /// Parses JSON text into the shim's self-describing [`Value`] tree.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a position-annotated message for any
    /// syntax error.
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    // -----------------------------------------------------------------
    // Writer: serde::Serializer -> compact JSON text.
    // -----------------------------------------------------------------

    struct Writer {
        out: String,
    }

    impl Writer {
        fn push_escaped(&mut self, s: &str) {
            self.out.push('"');
            for c in s.chars() {
                match c {
                    '"' => self.out.push_str("\\\""),
                    '\\' => self.out.push_str("\\\\"),
                    '\n' => self.out.push_str("\\n"),
                    '\r' => self.out.push_str("\\r"),
                    '\t' => self.out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        self.out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => self.out.push(c),
                }
            }
            self.out.push('"');
        }

        fn push_f64(&mut self, v: f64) {
            if v.is_finite() {
                // `{:?}` keeps a decimal point or exponent, so the value
                // re-parses as a float rather than an integer.
                self.out.push_str(&format!("{v:?}"));
            } else {
                // JSON has no NaN/Infinity; `null` round-trips into
                // `Option<f64>` as `None`.
                self.out.push_str("null");
            }
        }
    }

    /// Compound state shared by every sequence/map/struct serializer.
    pub struct Compound<'a> {
        w: &'a mut Writer,
        /// Whether at least one element has been written (comma control).
        first: bool,
        /// Text appended by `end()` (`]`, `}`, or `}}` for variants).
        close: &'static str,
    }

    impl Compound<'_> {
        fn sep(&mut self) {
            if self.first {
                self.first = false;
            } else {
                self.w.out.push(',');
            }
        }
    }

    macro_rules! fwd_int {
        ($($m:ident: $t:ty),* $(,)?) => {$(
            fn $m(self, v: $t) -> Result<(), JsonError> {
                self.out.push_str(&v.to_string());
                Ok(())
            }
        )*};
    }

    impl<'a> ser::Serializer for &'a mut Writer {
        type Ok = ();
        type Error = JsonError;
        type SerializeSeq = Compound<'a>;
        type SerializeTuple = Compound<'a>;
        type SerializeTupleStruct = Compound<'a>;
        type SerializeTupleVariant = Compound<'a>;
        type SerializeMap = Compound<'a>;
        type SerializeStruct = Compound<'a>;
        type SerializeStructVariant = Compound<'a>;

        fwd_int!(
            serialize_bool: bool, serialize_i8: i8, serialize_i16: i16,
            serialize_i32: i32, serialize_i64: i64, serialize_u8: u8,
            serialize_u16: u16, serialize_u32: u32, serialize_u64: u64,
        );

        fn serialize_f32(self, v: f32) -> Result<(), JsonError> {
            self.push_f64(f64::from(v));
            Ok(())
        }

        fn serialize_f64(self, v: f64) -> Result<(), JsonError> {
            self.push_f64(v);
            Ok(())
        }

        fn serialize_char(self, v: char) -> Result<(), JsonError> {
            self.push_escaped(&v.to_string());
            Ok(())
        }

        fn serialize_str(self, v: &str) -> Result<(), JsonError> {
            self.push_escaped(v);
            Ok(())
        }

        fn serialize_bytes(self, v: &[u8]) -> Result<(), JsonError> {
            let mut seq = ser::Serializer::serialize_seq(self, Some(v.len()))?;
            for b in v {
                ser::SerializeSeq::serialize_element(&mut seq, b)?;
            }
            ser::SerializeSeq::end(seq)
        }

        fn serialize_none(self) -> Result<(), JsonError> {
            self.out.push_str("null");
            Ok(())
        }

        fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), JsonError> {
            value.serialize(self)
        }

        fn serialize_unit(self) -> Result<(), JsonError> {
            self.out.push_str("null");
            Ok(())
        }

        fn serialize_unit_struct(self, _name: &'static str) -> Result<(), JsonError> {
            self.out.push_str("null");
            Ok(())
        }

        fn serialize_unit_variant(
            self,
            _name: &'static str,
            _variant_index: u32,
            variant: &'static str,
        ) -> Result<(), JsonError> {
            self.push_escaped(variant);
            Ok(())
        }

        fn serialize_newtype_struct<T: Serialize + ?Sized>(
            self,
            _name: &'static str,
            value: &T,
        ) -> Result<(), JsonError> {
            value.serialize(self)
        }

        fn serialize_newtype_variant<T: Serialize + ?Sized>(
            self,
            _name: &'static str,
            _variant_index: u32,
            variant: &'static str,
            value: &T,
        ) -> Result<(), JsonError> {
            self.out.push('{');
            self.push_escaped(variant);
            self.out.push(':');
            value.serialize(&mut *self)?;
            self.out.push('}');
            Ok(())
        }

        fn serialize_seq(self, _len: Option<usize>) -> Result<Compound<'a>, JsonError> {
            self.out.push('[');
            Ok(Compound {
                w: self,
                first: true,
                close: "]",
            })
        }

        fn serialize_tuple(self, len: usize) -> Result<Compound<'a>, JsonError> {
            ser::Serializer::serialize_seq(self, Some(len))
        }

        fn serialize_tuple_struct(
            self,
            _name: &'static str,
            len: usize,
        ) -> Result<Compound<'a>, JsonError> {
            ser::Serializer::serialize_seq(self, Some(len))
        }

        fn serialize_tuple_variant(
            self,
            _name: &'static str,
            _variant_index: u32,
            variant: &'static str,
            _len: usize,
        ) -> Result<Compound<'a>, JsonError> {
            self.out.push('{');
            self.push_escaped(variant);
            self.out.push_str(":[");
            Ok(Compound {
                w: self,
                first: true,
                close: "]}",
            })
        }

        fn serialize_map(self, _len: Option<usize>) -> Result<Compound<'a>, JsonError> {
            self.out.push('{');
            Ok(Compound {
                w: self,
                first: true,
                close: "}",
            })
        }

        fn serialize_struct(
            self,
            _name: &'static str,
            _len: usize,
        ) -> Result<Compound<'a>, JsonError> {
            ser::Serializer::serialize_map(self, None)
        }

        fn serialize_struct_variant(
            self,
            _name: &'static str,
            _variant_index: u32,
            variant: &'static str,
            _len: usize,
        ) -> Result<Compound<'a>, JsonError> {
            self.out.push('{');
            self.push_escaped(variant);
            self.out.push_str(":{");
            Ok(Compound {
                w: self,
                first: true,
                close: "}}",
            })
        }
    }

    impl ser::SerializeSeq for Compound<'_> {
        type Ok = ();
        type Error = JsonError;

        fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), JsonError> {
            self.sep();
            value.serialize(&mut *self.w)
        }

        fn end(self) -> Result<(), JsonError> {
            self.w.out.push_str(self.close);
            Ok(())
        }
    }

    impl ser::SerializeTuple for Compound<'_> {
        type Ok = ();
        type Error = JsonError;

        fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), JsonError> {
            ser::SerializeSeq::serialize_element(self, value)
        }

        fn end(self) -> Result<(), JsonError> {
            ser::SerializeSeq::end(self)
        }
    }

    impl ser::SerializeTupleStruct for Compound<'_> {
        type Ok = ();
        type Error = JsonError;

        fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), JsonError> {
            ser::SerializeSeq::serialize_element(self, value)
        }

        fn end(self) -> Result<(), JsonError> {
            ser::SerializeSeq::end(self)
        }
    }

    impl ser::SerializeTupleVariant for Compound<'_> {
        type Ok = ();
        type Error = JsonError;

        fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), JsonError> {
            ser::SerializeSeq::serialize_element(self, value)
        }

        fn end(self) -> Result<(), JsonError> {
            ser::SerializeSeq::end(self)
        }
    }

    impl ser::SerializeMap for Compound<'_> {
        type Ok = ();
        type Error = JsonError;

        fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), JsonError> {
            self.sep();
            // JSON object keys must be strings: serialize the key into a
            // scratch writer and quote it if the type produced a bare
            // scalar (e.g. an integer map key).
            let mut scratch = Writer { out: String::new() };
            key.serialize(&mut scratch)?;
            if scratch.out.starts_with('"') {
                self.w.out.push_str(&scratch.out);
            } else {
                self.w.push_escaped(&scratch.out);
            }
            self.w.out.push(':');
            Ok(())
        }

        fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), JsonError> {
            value.serialize(&mut *self.w)
        }

        fn end(self) -> Result<(), JsonError> {
            self.w.out.push_str(self.close);
            Ok(())
        }
    }

    impl ser::SerializeStruct for Compound<'_> {
        type Ok = ();
        type Error = JsonError;

        fn serialize_field<T: Serialize + ?Sized>(
            &mut self,
            key: &'static str,
            value: &T,
        ) -> Result<(), JsonError> {
            self.sep();
            self.w.push_escaped(key);
            self.w.out.push(':');
            value.serialize(&mut *self.w)
        }

        fn end(self) -> Result<(), JsonError> {
            self.w.out.push_str(self.close);
            Ok(())
        }
    }

    impl ser::SerializeStructVariant for Compound<'_> {
        type Ok = ();
        type Error = JsonError;

        fn serialize_field<T: Serialize + ?Sized>(
            &mut self,
            key: &'static str,
            value: &T,
        ) -> Result<(), JsonError> {
            ser::SerializeStruct::serialize_field(self, key, value)
        }

        fn end(self) -> Result<(), JsonError> {
            self.w.out.push_str(self.close);
            Ok(())
        }
    }

    // -----------------------------------------------------------------
    // Parser: JSON text -> serde::de::Value.
    // -----------------------------------------------------------------

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn err(&self, msg: &str) -> JsonError {
            JsonError(format!("{msg} at byte {}", self.pos))
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), JsonError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected `{}`", b as char)))
            }
        }

        fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(self.err(&format!("expected `{word}`")))
            }
        }

        fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
            if depth > MAX_DEPTH {
                return Err(self.err("nesting too deep"));
            }
            match self.peek() {
                Some(b'{') => self.object(depth),
                Some(b'[') => self.array(depth),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Unit),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                Some(c) => Err(self.err(&format!("unexpected character `{}`", c as char))),
                None => Err(self.err("unexpected end of input")),
            }
        }

        fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
            self.expect(b'{')?;
            let mut entries = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Map(entries));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value(depth + 1)?;
                entries.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Map(entries));
                    }
                    _ => return Err(self.err("expected `,` or `}` in object")),
                }
            }
        }

        fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Seq(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value(depth + 1)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Seq(items));
                    }
                    _ => return Err(self.err("expected `,` or `]` in array")),
                }
            }
        }

        fn hex4(&mut self) -> Result<u32, JsonError> {
            if self.pos + 4 > self.bytes.len() {
                return Err(self.err("truncated \\u escape"));
            }
            let digits = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                .map_err(|_| self.err("non-ascii \\u escape"))?;
            let code =
                u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u escape"))?;
            self.pos += 4;
            Ok(code)
        }

        fn string(&mut self) -> Result<String, JsonError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => {
                                out.push('"');
                                self.pos += 1;
                            }
                            Some(b'\\') => {
                                out.push('\\');
                                self.pos += 1;
                            }
                            Some(b'/') => {
                                out.push('/');
                                self.pos += 1;
                            }
                            Some(b'b') => {
                                out.push('\u{8}');
                                self.pos += 1;
                            }
                            Some(b'f') => {
                                out.push('\u{c}');
                                self.pos += 1;
                            }
                            Some(b'n') => {
                                out.push('\n');
                                self.pos += 1;
                            }
                            Some(b'r') => {
                                out.push('\r');
                                self.pos += 1;
                            }
                            Some(b't') => {
                                out.push('\t');
                                self.pos += 1;
                            }
                            Some(b'u') => {
                                self.pos += 1;
                                let hi = self.hex4()?;
                                let code = if (0xD800..0xDC00).contains(&hi) {
                                    // Surrogate pair: require the low half.
                                    if self.bytes[self.pos..].starts_with(b"\\u") {
                                        self.pos += 2;
                                        let lo = self.hex4()?;
                                        if !(0xDC00..0xE000).contains(&lo) {
                                            return Err(self.err("invalid low surrogate"));
                                        }
                                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                    } else {
                                        return Err(self.err("unpaired surrogate"));
                                    }
                                } else {
                                    hi
                                };
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("invalid \\u code point"))?,
                                );
                            }
                            _ => return Err(self.err("invalid escape sequence")),
                        }
                    }
                    Some(_) => {
                        // Consume one complete UTF-8 scalar (input is a
                        // &str, so boundaries are valid).
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| self.err("invalid utf-8"))?;
                        let c = rest.chars().next().ok_or_else(|| self.err("empty char"))?;
                        if (c as u32) < 0x20 {
                            return Err(self.err("unescaped control character"));
                        }
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, JsonError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            let mut float = false;
            while let Some(c) = self.peek() {
                match c {
                    b'0'..=b'9' => self.pos += 1,
                    b'.' | b'e' | b'E' | b'+' | b'-' => {
                        float = true;
                        self.pos += 1;
                    }
                    _ => break,
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.err("invalid number"))?;
            if float {
                text.parse::<f64>()
                    .map(Value::F64)
                    .map_err(|_| self.err("invalid number"))
            } else if text.starts_with('-') {
                // Integral: prefer exact integer values so u64/usize
                // round-trip losslessly (f64 would truncate above 2^53).
                text.parse::<i64>()
                    .map(Value::I64)
                    .or_else(|_| text.parse::<f64>().map(Value::F64))
                    .map_err(|_| self.err("invalid number"))
            } else {
                text.parse::<u64>()
                    .map(Value::U64)
                    .or_else(|_| text.parse::<f64>().map(Value::F64))
                    .map_err(|_| self.err("invalid number"))
            }
        }
    }
}

pub mod client {
    //! Minimal blocking HTTP/1.1 client over [`std::net::TcpStream`]:
    //! exactly what `sqdmctl` and the socket-level test suites need to
    //! drive the daemon. One request per connection (`Connection: close`),
    //! with a hard I/O deadline so a wedged server fails the caller fast
    //! instead of hanging it.

    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    /// A parsed HTTP response: status code plus body text.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Response {
        /// Numeric status code from the status line.
        pub status: u16,
        /// The response body (JSON for every daemon endpoint).
        pub body: String,
    }

    impl Response {
        /// Whether the status code is in the 2xx range.
        pub fn is_success(&self) -> bool {
            (200..300).contains(&self.status)
        }
    }

    /// Sends one HTTP request and reads the full response.
    ///
    /// `body = None` sends no payload (GET/POST without a body);
    /// `Some(json)` attaches it with `Content-Type: application/json`.
    ///
    /// # Errors
    ///
    /// Propagates connect/read/write failures and timeouts, and rejects
    /// responses that are not parseable HTTP/1.1.
    pub fn request(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: Option<&str>,
        timeout: Duration,
    ) -> std::io::Result<Response> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        send_request(&stream, addr, method, path, body)?;
        read_response(stream)
    }

    /// Writes the request head and body to an open stream.
    fn send_request(
        mut stream: &TcpStream,
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<()> {
        let payload = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            payload.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(payload.as_bytes())?;
        stream.flush()
    }

    /// Reads a `Connection: close` response to EOF and splits it into
    /// status and body.
    fn read_response(mut stream: TcpStream) -> std::io::Result<Response> {
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        let text = String::from_utf8_lossy(&raw).into_owned();
        let header_end = text.find("\r\n\r\n").ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "response missing header terminator",
            )
        })?;
        let status = text
            .strip_prefix("HTTP/1.1 ")
            .or_else(|| text.strip_prefix("HTTP/1.0 "))
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
            })?;
        Ok(Response {
            status,
            body: text[header_end + 4..].to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::json::{from_str, parse, to_string, JsonError};
    use super::*;
    use serde::de::Value;

    #[test]
    fn wire_types_round_trip_through_json() {
        let reg = RegisterModel {
            name: "edm-micro".into(),
            preset: "micro".into(),
            precision: "int8-native".into(),
            seed: 31,
        };
        let text = to_string(&reg).unwrap();
        assert_eq!(from_str::<RegisterModel>(&text).unwrap(), reg);

        let sub = Submit {
            model: 0,
            id: 42,
            seed: 7,
            steps: 3,
            tenant: 2,
            priority: 5,
        };
        let text = to_string(&sub).unwrap();
        assert!(text.contains("\"id\":42"), "{text}");
        assert!(text.contains("\"priority\":5"), "{text}");
        assert_eq!(from_str::<Submit>(&text).unwrap(), sub);

        let status = StatusReply {
            id: 42,
            state: "done".into(),
            model: 0,
            image: Some(ImagePayload {
                dims: vec![1, 1, 8, 8],
                bits: vec![0x3f80_0000, 0xbf80_0000, 0x7fc0_0000],
            }),
            error: None,
            proto_version: PROTO_VERSION,
        };
        let text = to_string(&status).unwrap();
        let back: StatusReply = from_str(&text).unwrap();
        assert_eq!(back, status);
        // The image crossed as exact bit patterns, NaN included.
        assert_eq!(back.image.unwrap().bits[2], 0x7fc0_0000);
    }

    #[test]
    fn stats_reply_round_trips_with_absent_aggregates() {
        let stats = StatsReply {
            clock: 9,
            rounds: 9,
            draining: false,
            active_requests: 1,
            rejected: 3,
            proto_version: PROTO_VERSION,
            models: vec![ModelStatsWire {
                model: 0,
                name: "m".into(),
                precision: "fp32".into(),
                completed: 0,
                rounds: 0,
                mean_latency: None,
                p50_latency: None,
                p95_latency: None,
                p99_latency: None,
                mean_batch_occupancy: None,
                energy_per_image_pj: None,
                mean_occupancy: None,
                peak_occupancy: None,
            }],
            tenants: vec![],
        };
        let text = to_string(&stats).unwrap();
        assert!(text.contains("\"mean_latency\":null"), "{text}");
        assert_eq!(from_str::<StatsReply>(&text).unwrap(), stats);
    }

    #[test]
    fn proto_version_skew_is_a_typed_error() {
        // Same or older peers are accepted...
        assert!(check_proto_version(PROTO_VERSION).is_ok());
        assert!(check_proto_version(1).is_ok());
        // ...but a reply from a future daemon is a typed error, not a
        // silent mis-parse of fields this build has never heard of.
        let older_build_reply = format!(
            "{{\"clock\":1,\"rounds\":1,\"draining\":false,\"active_requests\":0,\
             \"rejected\":0,\"proto_version\":{},\"models\":[],\"tenants\":[]}}",
            PROTO_VERSION + 96
        );
        let reply: StatsReply = from_str(&older_build_reply).unwrap();
        match check_proto_version(reply.proto_version) {
            Err(EdmError::ProtocolMismatch { expected, got }) => {
                assert_eq!(expected, PROTO_VERSION);
                assert_eq!(got, PROTO_VERSION + 96);
            }
            other => panic!("expected ProtocolMismatch, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let text = to_string(&f64::NAN).unwrap();
        assert_eq!(text, "null");
        let text = to_string(&vec![1.5f64, f64::INFINITY]).unwrap();
        assert_eq!(text, "[1.5,null]");
        // And null deserializes into an absent Option.
        assert_eq!(from_str::<Option<f64>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<f64>>("1.5").unwrap(), Some(1.5));
    }

    #[test]
    fn parser_handles_escapes_numbers_and_nesting() {
        let v = parse(r#"{"s":"a\"b\\c\n\u0041\ud83d\ude00","n":[-3,2.5,18446744073709551615]}"#)
            .unwrap();
        let map = v.as_map().unwrap();
        assert_eq!(map[0].1, Value::Str("a\"b\\c\nA😀".into()));
        let seq = map[1].1.as_seq().unwrap();
        assert_eq!(seq[0], Value::I64(-3));
        assert_eq!(seq[1], Value::F64(2.5));
        assert_eq!(seq[2], Value::U64(u64::MAX));
        // Escaped strings survive a full round trip.
        let s = "quote \" slash \\ newline \n tab \t unicode 😀";
        let text = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&text).unwrap(), s);
    }

    #[test]
    fn parser_rejects_malformed_input_cleanly() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\":}",
            "{\"a\" 1}",
            "[1,]",
            "[1 2]",
            "\"unterminated",
            "nul",
            "01a",
            "{\"a\":1}trailing",
            "\"bad \\q escape\"",
            "\"unpaired \\ud83d\"",
            "-",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
        // Deep nesting fails instead of overflowing the stack.
        let deep = "[".repeat(100_000);
        assert!(matches!(parse(&deep), Err(JsonError(msg)) if msg.contains("nesting")));
    }

    #[test]
    fn integer_keys_become_string_keys() {
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        m.insert(3u32, "x".to_string());
        assert_eq!(to_string(&m).unwrap(), "{\"3\":\"x\"}");
    }

    #[test]
    fn serve_stats_serialize_through_the_wire_json() {
        // The library stats types (used inside StatsReply) must pass
        // through the JSON writer unchanged.
        let rollup = TenantRollup {
            tenant: 4,
            requests: 2,
            total_steps: 5,
            mean_latency: 2.5,
            mean_queue_delay: 0.0,
        };
        let text = to_string(&rollup).unwrap();
        let back: TenantRollup = from_str(&text).unwrap();
        assert_eq!(back, rollup);
    }
}
