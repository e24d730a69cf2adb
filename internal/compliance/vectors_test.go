package compliance

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"github.com/rtc-compliance/rtcc/internal/dpi"
	"github.com/rtc-compliance/rtcc/internal/stun"
)

// rfc5769Request is RFC 5769 §2.1's sample request: a Binding request
// with SOFTWARE, PRIORITY, ICE-CONTROLLED, USERNAME, MESSAGE-INTEGRITY
// (short-term password rfc5769Password) and FINGERPRINT. It comes from
// outside this repository, so it checks the judges against bytes the
// emulators did not write.
const rfc5769Request = "000100582112a442b7e7a701bc34d686fa87dfae802200105354554e207465737420636c69656e74002400046e0001ff80290008932ff9b151263b36000600096576746a3a68367659202020000800149aeaa70cbfd8cb56781ef2b5b2d3f249c1b571a280280004e57a3bcf"

const rfc5769Password = "VOkJxbRl1RmTxUk/WvJxBt"

// inspectOne runs the DPI and the judges over one datagram and returns
// its class and the verdict of its single message.
func inspectOne(t *testing.T, raw []byte) (dpi.Class, Checked) {
	t.Helper()
	res := dpi.NewEngine().Inspect(raw, nil)
	if len(res.Messages) != 1 || res.Messages[0].Protocol != dpi.ProtoSTUN {
		t.Fatalf("DPI extracted %+v, want one STUN message", res.Messages)
	}
	return res.Class, checkOne(t, newSession(), res.Messages[0])
}

// TestRFC5769SampleRequest checks the vector's own FINGERPRINT and
// MESSAGE-INTEGRITY first, so a typo in it fails here, then pins that
// it is judged compliant and that breaking either FINGERPRINT rule
// fails criterion 4.
func TestRFC5769SampleRequest(t *testing.T) {
	raw, err := hex.DecodeString(rfc5769Request)
	if err != nil {
		t.Fatal(err)
	}
	m, err := stun.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !stun.VerifyFingerprint(m) {
		t.Fatal("vector's FINGERPRINT does not verify")
	}
	// MESSAGE-INTEGRITY covers the bytes before it, with the header's
	// length field counting up to and including MESSAGE-INTEGRITY.
	const miLen = 4 + 20
	mi := len(raw) - 8 - miLen
	if at := stun.AttrType(binary.BigEndian.Uint16(raw[mi:])); at != stun.AttrMessageIntegrity {
		t.Fatalf("attribute before FINGERPRINT is %v, want MESSAGE-INTEGRITY", at)
	}
	covered := append([]byte(nil), raw[:mi]...)
	binary.BigEndian.PutUint16(covered[2:], uint16(mi-stun.HeaderLen+miLen))
	if got := stun.MessageIntegrity(covered, []byte(rfc5769Password)); !bytes.Equal(got, raw[mi+4:mi+miLen]) {
		t.Fatalf("vector's MESSAGE-INTEGRITY = %x, want %x", raw[mi+4:mi+miLen], got)
	}

	class, c := inspectOne(t, raw)
	if class != dpi.ClassStandard {
		t.Errorf("class = %v, want standard", class)
	}
	if !c.Verdict.Compliant {
		t.Errorf("sample request judged non-compliant: %v %s", c.Verdict.Failed, c.Verdict.Reason)
	}

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-1] ^= 0xff
	_, c = inspectOne(t, flipped)
	wantFail(t, c, CritAttrValue, "FINGERPRINT value")

	trailing := append(append([]byte(nil), raw...), 0x00, 0x24, 0x00, 0x04, 0x6e, 0x00, 0x01, 0xff)
	binary.BigEndian.PutUint16(trailing[2:], uint16(len(trailing)-stun.HeaderLen))
	_, c = inspectOne(t, trailing)
	wantFail(t, c, CritAttrValue, "not the last attribute")
}
