// Malformed and stale escape hatches are themselves findings: a
// suppression without a reason is review debt, not a sanction, and one
// that suppresses nothing outlived the code it excused. The expectations
// for this fixture live in TestAllowNeedsReason: a want comment cannot
// share a line with a malformed allow comment under test, while a
// well-formed one carries its want in its reason.
//
//amsvet:importpath ams/internal/fixture
package fixture

//amsvet:allow lockblock

//amsvet:allow nosuchanalyzer because reasons

//amsvet:allow ctxflow the context this excused is gone // want "stale //amsvet:allow: ctxflow reports nothing"
func placeholder() {}
