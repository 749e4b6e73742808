"""Learn a reduced text-classification dictionary from mined episodes.

Run:  python demos/04_text_dictionary.py
"""

from episodeseq import (
    build_dictionary_I,
    compute_idf,
    evaluate,
    mine_dictionary,
    predict,
    preprocess,
    tfidf,
    train_nb,
)
from episodeseq.datasets import make_two_class_corpus

# Tokenization mirrors the usual corpus preprocessing: lowercase and drop
# tokens shorter than three characters.
print("preprocess('The plot, a MESS!') ->", preprocess("The plot, a MESS!"))
print()

train, test = make_two_class_corpus()
print(f"Synthetic corpus: {train.n_documents} train / {test.n_documents} test docs,")
print(f"classes {train.label_names}; the class signal lives in short phrases.")
print()

# Dictionary-I is the whole training vocabulary.  Dictionary-II keeps only
# words that appear in the selected multi-word episodes, i.e. in recurring
# phrases that compress the corpus.
dict_one = build_dictionary_I(train)
dict_two, selection = mine_dictionary(train, max_gap=5)
print(f"Mined {len(selection.selected)} episodes, e.g.:")
for sel in selection.selected[:5]:
    print(f"  {sel.episode}  (frequency {sel.frequency})")
print(f"Dictionary sizes: {len(dict_one)} -> {len(dict_two)}")
print()

for name, dictionary in (("I", dict_one), ("II", dict_two)):
    idf = compute_idf(train, dictionary)
    model = train_nb(tfidf(train, dictionary, idf), train.labels)
    metrics = evaluate(predict(model, tfidf(test, dictionary, idf)), test.labels)
    print(
        f"Naive Bayes with Dictionary-{name}: "
        f"accuracy {metrics['accuracy']:.3f}, macro-F {metrics['macro_f']:.3f}"
    )
