//! The binary codec shared by the WAL and the snapshots: little-endian
//! integers, length-prefixed strings, and tuples, relations, schemas and
//! deltas built from them. [`Reader`] decodes with every read
//! length-checked, so damaged bytes surface as [`DataError::Corrupt`]
//! instead of a panic.
//!
//! The module is private, which keeps all of it out of the public API.
//! `Reader` is nevertheless `pub`: the per-kind `decode` behind the sealed
//! [`crate::database::RelationKind`] names it, and the privacy lints ask
//! for a type that a public trait's interface mentions to be `pub`.

use crate::bag::BagRelation;
use crate::database::RelationKind;
use crate::delta::Delta;
use crate::relation::Relation;
use crate::schema::{RelationSchema, Schema};
use crate::tuple::Tuple;
use crate::value::{Const, Value};
use crate::wal::WalRecord;
use crate::{DataError, Result};

pub(crate) fn corrupt(detail: impl Into<String>) -> DataError {
    DataError::Corrupt {
        detail: detail.into(),
    }
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_const(buf: &mut Vec<u8>, c: &Const) {
    match c {
        Const::Int(i) => {
            buf.push(0);
            put_u64(buf, *i as u64);
        }
        Const::Str(s) => {
            buf.push(1);
            put_str(buf, s);
        }
    }
}

pub(crate) fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Const(c) => {
            buf.push(0);
            put_const(buf, c);
        }
        Value::Null(n) => {
            buf.push(1);
            put_u32(buf, *n);
        }
    }
}

pub(crate) fn put_tuple(buf: &mut Vec<u8>, t: &Tuple) {
    put_u32(buf, t.arity() as u32);
    for v in t.iter() {
        put_value(buf, v);
    }
}

pub(crate) fn put_relation(buf: &mut Vec<u8>, r: &Relation) {
    put_u32(buf, r.arity() as u32);
    put_u32(buf, r.len() as u32);
    for t in r.iter() {
        put_tuple(buf, t);
    }
}

pub(crate) fn put_bag_relation(buf: &mut Vec<u8>, r: &BagRelation) {
    put_u32(buf, r.arity() as u32);
    put_u32(buf, r.distinct_len() as u32);
    for (t, n) in r.iter() {
        put_tuple(buf, t);
        put_u64(buf, n as u64);
    }
}

pub(crate) fn put_schema(buf: &mut Vec<u8>, s: &Schema) {
    put_u32(buf, s.len() as u32);
    for rel in s.iter() {
        put_str(buf, rel.name());
        put_u32(buf, rel.attributes().len() as u32);
        for a in rel.attributes() {
            put_str(buf, a);
        }
    }
}

pub(crate) fn put_delta(buf: &mut Vec<u8>, d: &Delta) {
    match d {
        Delta::Insert { relation, tuples } => {
            buf.push(0);
            put_str(buf, relation);
            put_u32(buf, tuples.len() as u32);
            for t in tuples {
                put_tuple(buf, t);
            }
        }
        Delta::Delete { relation, tuples } => {
            buf.push(1);
            put_str(buf, relation);
            put_u32(buf, tuples.len() as u32);
            for t in tuples {
                put_tuple(buf, t);
            }
        }
        Delta::Resolve { null, value } => {
            buf.push(2);
            put_u32(buf, *null);
            put_const(buf, value);
        }
        Delta::Structural => buf.push(3),
    }
}

/// Bounded cursor over an encoded payload; every read is length-checked and
/// reports a typed [`DataError::Corrupt`] instead of panicking.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(corrupt("payload ends mid-field"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        let b = self.bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    pub(crate) fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let b = self.bytes(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| corrupt("string field is not utf-8"))
    }

    pub(crate) fn const_(&mut self) -> Result<Const> {
        match self.u8()? {
            0 => Ok(Const::Int(self.u64()? as i64)),
            1 => Ok(Const::str(self.str()?)),
            t => Err(corrupt(format!("unknown const tag {t}"))),
        }
    }

    pub(crate) fn value(&mut self) -> Result<Value> {
        match self.u8()? {
            0 => Ok(Value::Const(self.const_()?)),
            1 => Ok(Value::Null(self.u32()?)),
            t => Err(corrupt(format!("unknown value tag {t}"))),
        }
    }

    pub(crate) fn tuple(&mut self) -> Result<Tuple> {
        let arity = self.u32()? as usize;
        if arity > self.buf.len() - self.pos {
            return Err(corrupt("tuple arity exceeds payload"));
        }
        let mut vs = Vec::with_capacity(arity);
        for _ in 0..arity {
            vs.push(self.value()?);
        }
        Ok(Tuple::new(vs))
    }

    pub(crate) fn relation(&mut self) -> Result<Relation> {
        let arity = self.u32()? as usize;
        let count = self.u32()? as usize;
        if count > self.buf.len() - self.pos {
            return Err(corrupt("relation count exceeds payload"));
        }
        let mut tuples = Vec::with_capacity(count);
        for _ in 0..count {
            let t = self.tuple()?;
            if t.arity() != arity {
                return Err(corrupt("relation tuple arity mismatch"));
            }
            tuples.push(t);
        }
        Ok(Relation::with_arity(arity, tuples))
    }

    pub(crate) fn bag_relation(&mut self) -> Result<BagRelation> {
        let arity = self.u32()? as usize;
        let count = self.u32()? as usize;
        if count > self.buf.len() - self.pos {
            return Err(corrupt("bag relation count exceeds payload"));
        }
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            let t = self.tuple()?;
            if t.arity() != arity {
                return Err(corrupt("bag relation tuple arity mismatch"));
            }
            let n = self.u64()?;
            let n = usize::try_from(n).map_err(|_| corrupt("bag multiplicity overflow"))?;
            items.push((t, n));
        }
        Ok(BagRelation::from_counted(arity, items))
    }

    pub(crate) fn schema(&mut self) -> Result<Schema> {
        let count = self.u32()? as usize;
        if count > self.buf.len() - self.pos {
            return Err(corrupt("schema relation count exceeds payload"));
        }
        let mut rels = Vec::with_capacity(count);
        for _ in 0..count {
            let name = self.str()?;
            let n_attrs = self.u32()? as usize;
            if n_attrs > self.buf.len() - self.pos {
                return Err(corrupt("schema attribute count exceeds payload"));
            }
            let mut attrs = Vec::with_capacity(n_attrs);
            for _ in 0..n_attrs {
                attrs.push(self.str()?);
            }
            rels.push(RelationSchema::new(name, attrs));
        }
        Schema::from_relations(rels).map_err(|e| corrupt(format!("invalid schema: {e}")))
    }

    pub(crate) fn delta(&mut self) -> Result<Delta> {
        match self.u8()? {
            0 | 1 => {
                let is_insert = self.buf[self.pos - 1] == 0;
                let relation = self.str()?;
                let count = self.u32()? as usize;
                if count > self.buf.len() - self.pos {
                    return Err(corrupt("delta tuple count exceeds payload"));
                }
                let mut tuples = Vec::with_capacity(count);
                for _ in 0..count {
                    tuples.push(self.tuple()?);
                }
                Ok(if is_insert {
                    Delta::Insert { relation, tuples }
                } else {
                    Delta::Delete { relation, tuples }
                })
            }
            2 => Ok(Delta::Resolve {
                null: self.u32()?,
                value: self.const_()?,
            }),
            3 => Ok(Delta::Structural),
            t => Err(corrupt(format!("unknown delta tag {t}"))),
        }
    }

    /// Decode one WAL record of a store holding `R` relations. A reset
    /// frame of the other kind is undecodable here, so a scan stops at it.
    pub(crate) fn record<R: RelationKind>(&mut self) -> Result<WalRecord<R>> {
        match self.u8()? {
            0 => Ok(WalRecord::Delta(self.delta()?)),
            t if t == R::RESET_TAG => Ok(WalRecord::Reset {
                relation: self.str()?,
                rel: R::decode(self)?,
            }),
            t => Err(corrupt(format!("unknown wal record tag {t}"))),
        }
    }

    pub(crate) fn done(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(corrupt("trailing bytes after record"))
        }
    }
}
