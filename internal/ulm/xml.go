package ulm

import (
	"encoding/xml"
	"io"
)

// XML rendering of ULM records — the "ULM to XML filter for the
// gateway, so a consumer can request either format for event data"
// (paper §7.0). The schema is a straightforward attribute/element
// mapping, pending what the paper calls "further progress in
// standardizing event schemas from the Performance Working Group of the
// GridForum".

// xmlRecord is the XML document form of a Record.
type xmlRecord struct {
	XMLName xml.Name   `xml:"ulmEvent"`
	Date    string     `xml:"date,attr"`
	Host    string     `xml:"host,attr"`
	Prog    string     `xml:"prog,attr"`
	Lvl     string     `xml:"lvl,attr"`
	Event   string     `xml:"event,attr,omitempty"`
	Fields  []xmlField `xml:"field"`
}

type xmlField struct {
	Name  string `xml:"name,attr"`
	Value string `xml:",chardata"`
}

// MarshalXML implements xml.Marshaler for Record.
func (r Record) MarshalXML(e *xml.Encoder, start xml.StartElement) error {
	x := xmlRecord{
		Date:   FormatDate(r.Date),
		Host:   r.Host,
		Prog:   r.Prog,
		Lvl:    r.Lvl,
		Event:  r.Event,
		Fields: make([]xmlField, len(r.Fields)),
	}
	for i, f := range r.Fields {
		x.Fields[i] = xmlField{f.Key, f.Value}
	}
	return e.Encode(x)
}

// UnmarshalXML implements xml.Unmarshaler for Record.
func (r *Record) UnmarshalXML(d *xml.Decoder, start xml.StartElement) error {
	var x xmlRecord
	if err := d.DecodeElement(&x, &start); err != nil {
		return err
	}
	t, err := ParseDate(x.Date)
	if err != nil {
		return err
	}
	r.Date = t
	r.Host = x.Host
	r.Prog = x.Prog
	r.Lvl = x.Lvl
	r.Event = x.Event
	r.Fields = make([]Field, len(x.Fields))
	for i, f := range x.Fields {
		r.Fields[i] = Field{f.Name, f.Value}
	}
	return r.Validate()
}

// ToXML renders r as a standalone XML document fragment. The error is
// always nil: every string is escaped into something XML can carry.
func ToXML(r *Record) ([]byte, error) {
	return AppendXML(make([]byte, 0, 128+48*len(r.Fields)), r), nil
}

// unmarshalXML parses a record through encoding/xml: the path of every
// document that is not of the shape AppendXML writes (TextBatch.AddXML).
func unmarshalXML(data []byte) (Record, error) {
	var r Record
	err := xml.Unmarshal(data, &r)
	return r, err
}

// WriteXMLStream writes records to w as a sequence of ulmEvent elements
// wrapped in a ulmStream root element.
func WriteXMLStream(w io.Writer, recs []Record) error {
	if _, err := io.WriteString(w, "<ulmStream>\n"); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("  ", "  ")
	for i := range recs {
		if err := enc.Encode(recs[i]); err != nil {
			return err
		}
	}
	if err := enc.Flush(); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n</ulmStream>\n")
	return err
}
